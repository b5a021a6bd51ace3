package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	rayleigh "repro"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/doppler"
	"repro/internal/dsp"
	"repro/internal/fading"
	"repro/internal/randx"
	"repro/internal/service"
)

// metric is one named number of the result.
type metric struct {
	name  string
	value float64
	unit  string
}

// spanCapacity presizes the tracer so that recording a span does not
// reallocate the span table in the middle of a phase.
const spanCapacity = 1 << 17

// replaySpecs bounds how many of a run's distinct specs the traced pass
// replays through the layer calls.
const replaySpecs = 8

// coloringPairs is how many eigendecomposition/coloring pairs the traced
// pass times per replayed spec.
const coloringPairs = 8

// tracedPass reruns the workload's phases with spans around every call the
// benchmark makes into a layer, replays the run's specs through the layer
// calls in the order core makes them, and returns the per-layer metrics with
// a one-line decomposition summary. u is the untraced pass of the same run.
func (b *bench) tracedPass(u *endToEnd) ([]metric, string, error) {
	tr := newTracer()
	tr.spans = make([]span, 0, spanCapacity)
	m1 := newMeter(b.w.newKernel, 1, b.w.reps1, b.w.ref1)
	m2 := newMeter(b.w.newKernel, 2, b.w.reps2, b.w.ref2)
	runtime.GOMAXPROCS(2)
	e, err := b.setup(tr)
	if err != nil {
		return nil, "", err
	}
	defer e.stop()
	scr := newConn(e.conns[0].base)
	defer scr.close()
	before, err := scr.scrape()
	if err != nil {
		return nil, "", err
	}

	var ms0, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// The queue-depth gauge is sampled while the served phase runs.
	var depths []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if s, err := scr.scrape(); err == nil {
					depths = append(depths, s["fadingd_queue_depth"])
				}
			}
		}
	}()
	servedDur, libDur := b.phaseDurations()
	servedSlices, _ := b.served(e, m2, servedDur, tr)
	close(stop)
	wg.Wait()
	after, err := scr.scrape()
	if err != nil {
		return nil, "", err
	}
	libSlices := b.library(e, m1, libDur, tr)
	runtime.ReadMemStats(&ms2)

	var blocks float64
	for _, s := range servedSlices {
		blocks += s.work
	}
	for _, s := range libSlices {
		blocks += s.work
	}
	blocks /= float64(b.w.n * blockLen)
	_, tracedServed := rates(servedSlices, m2.ref)

	// The replay keeps its spans apart, so that the block it decomposes and
	// its parts are timed in the same stretch of the run.
	rt := newTracer()
	runtime.GOMAXPROCS(1)
	err = b.replay(rt)
	runtime.GOMAXPROCS(2)
	if err != nil {
		return nil, "", err
	}
	b.timeTokens(rt)

	ms := b.layerMetrics(tr, rt)
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("fadingd_spec_cache_hits_total"), delta("fadingd_spec_cache_misses_total")
	cacheRatio := 0.0
	if hits+misses > 0 {
		cacheRatio = hits / (hits + misses)
	}
	ms = append(ms,
		metric{"service.queue_depth_mean", mean(depths), "jobs"},
		metric{"service.blocks_served", delta("fadingd_blocks_served_total"), "count"},
		metric{"service.cache_hit_ratio", cacheRatio, "ratio"},
		metric{"service.token_rebuilds", delta("fadingd_token_rebuilds_total"), "count"},
		metric{"service.sessions_adopted", delta("fadingd_sessions_adopted_total"), "count"},
		metric{"runtime.gc_pause_ms", float64(ms2.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms"},
		metric{"runtime.alloc_bytes_per_block", float64(ms2.TotalAlloc-ms0.TotalAlloc) / math.Max(blocks, 1), "B"},
		metric{"probe.rate", u.probe1, "1/s"},
		metric{"max_rss_mb", u.rssMB, "MB"},
		metric{"tracing.overhead_ratio", u.servedNorm / tracedServed, "ratio"},
	)
	ms = append(ms, movedMetrics(u)...)
	ms = append(ms,
		metric{"raw.setup_s", u.setupRaw, "s"},
		metric{"raw.lib_samples_per_s", u.libRaw, "1/s"},
		metric{"raw.served_samples_per_s", u.servedRaw, "1/s"},
	)
	path, err := tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err != nil {
		return nil, "", err
	}
	rpath, err := rt.write(".bench_build/spans", fmt.Sprintf("%s-seed%d-replay.jsonl", b.w.name, b.seed))
	if err != nil {
		return nil, "", err
	}
	return ms, b.gapSummary(ms) + "; spans in " + path + " and " + rpath, nil
}

// replay drives the run's specs through the layer calls in the order core
// makes them: covariance assembly, eigendecomposition, coloring, Doppler
// generators and stream construction at setup; then per block the Doppler
// IDFT of every row, the coloring GEMM, and the envelope pass or fading
// transform, each under a replay.block parent span. For comparison it also
// times the whole block through rayleigh.Cursor.BlockAt, its frame encoding,
// one bare IFFT row and the Gaussian fill of one row.
func (b *bench) replay(tr *tracer) error {
	for _, spec := range b.in.specs(b.w, replaySpecs) {
		if err := b.replaySpec(tr, spec); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

func (b *bench) replaySpec(tr *tracer, spec service.SessionSpec) error {
	root := tr.begin("replay.setup", -1, "")
	s := tr.begin("corrmodel.covariance", root, "")
	k, err := spec.Model.Build()
	tr.end(s)
	if err != nil {
		return err
	}
	// The coloring's own work beyond its eigendecomposition is small next to
	// it, so the two calls are timed in adjacent pairs and the self time is
	// the median of the paired differences.
	var l *cmplxmat.Matrix
	for rep := 0; rep < coloringPairs; rep++ {
		s = tr.begin("cmplxmat.eigen", root, "")
		_, err = cmplxmat.EigenHermitian(k)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("core.coloring", root, "")
		l, _, err = core.ColoringFromCovariance(k)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	n := k.Rows()
	fs := doppler.FilterSpec{M: spec.IDFTPoints, NormalizedDoppler: spec.NormalizedDoppler}
	gens := make([]*doppler.Generator, n)
	for j := range gens {
		s = tr.begin("doppler.newgen", root, "")
		gens[j], err = doppler.NewGenerator(fs, 0.5)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	s = tr.begin("rayleigh.newstream", root, "")
	stream, err := newLibStream(spec)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return err
	}

	scaled, err := core.ScaleColoring(l, gens[0].OutputVariance())
	if err != nil {
		return err
	}
	powers := make([]float64, n)
	for j := range powers {
		powers[j] = real(k.At(j, j))
	}
	transform, err := fading.New(spec.Model.Fading, spec.Model.Params, powers, spec.Seed)
	if err != nil {
		return err
	}
	cur, err := stream.NewCursor()
	if err != nil {
		return err
	}
	m := spec.IDFTPoints
	w, z := cmplxmat.New(n, m), cmplxmat.New(n, m)
	rngs := make([]*randx.RNG, n)
	root0 := randx.New(spec.Seed)
	for j := range rngs {
		rngs[j] = root0.Split()
	}
	gauss := make([][]complex128, n)
	env := make([][]float64, n)
	for j := range gauss {
		gauss[j] = make([]complex128, m)
		env[j] = make([]float64, m)
	}
	taps := 0
	for _, c := range gens[0].Coefficients() {
		if c != 0 {
			taps++
		}
	}
	normals := make([]float64, 2*taps)
	b.normalsPerRow = len(normals)
	plan := dsp.NewPlan(m)
	row := make([]complex128, m)
	block := &rayleigh.Block{}
	var enc service.FrameEncoder
	for i := 0; i < b.w.replayBlocks; i++ {
		pb := tr.begin("replay.block", -1, "")
		for j := 0; j < n; j++ {
			s = tr.begin("doppler.block", pb, "")
			err = gens[j].BlockInto(rngs[j], w.RowView(j))
			tr.end(s)
			if err != nil {
				return err
			}
		}
		s = tr.begin("cmplxmat.color", pb, "")
		err = cmplxmat.ColorBlock(scaled, w, z)
		tr.end(s)
		if err != nil {
			return err
		}
		offset := uint64(i) * uint64(m)
		for j := 0; j < n; j++ {
			copy(gauss[j], z.RowView(j))
			if transform != nil {
				s = tr.begin("fading.apply", pb, "")
				transform.Apply(j, offset, gauss[j], env[j])
				tr.end(s)
				continue
			}
			for q, v := range gauss[j] {
				re, im := real(v), imag(v)
				env[j][q] = math.Sqrt(re*re + im*im)
			}
		}
		tr.end(pb)

		s = tr.begin("rayleigh.block", -1, "")
		err = cur.BlockAt(uint64(i), block)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("service.encode", -1, "")
		_, err = enc.Encode(io.Discard, uint64(i), block, false)
		tr.end(s)
		if err != nil {
			return err
		}
		copy(row, w.RowView(0))
		s = tr.begin("dsp.ifft", -1, "")
		plan.InverseScaled(row)
		tr.end(s)
		s = tr.begin("randx.normal", -1, "")
		rngs[0].FillNormal(normals, 0.5)
		tr.end(s)
	}
	return nil
}

// timeTokens verifies and re-signs the tokens the run's creates returned.
func (b *bench) timeTokens(tr *tracer) {
	for rep := 0; rep < 4; rep++ {
		for _, raw := range b.tokens {
			s := tr.begin("token.verify", -1, "")
			t, err := b.keyring.Verify(raw, time.Now())
			tr.end(s)
			if !b.ops.record(opCheck, err) {
				continue
			}
			s = tr.begin("token.sign", -1, "")
			_, err = b.keyring.Sign(t)
			tr.end(s)
			b.ops.record(opCheck, err)
		}
	}
}

// layerMetrics derives the per-layer timings from the spans of the traced
// phases (the HTTP spans) and of the replay (everything else).
func (b *bench) layerMetrics(phases, tr *tracer) []metric {
	med := func(name string) float64 { return zeroNaN(median(tr.durations(name))) }
	n := float64(b.w.n)
	ifft := med("dsp.ifft")
	dblock := med("doppler.block")
	color := med("cmplxmat.color")
	apply := zeroNaN(median(childSums(tr, "replay.block", "fading.apply")))
	block := med("rayleigh.block")
	eigens, colorings := tr.durations("cmplxmat.eigen"), tr.durations("core.coloring")
	coloringSelf := make([]float64, min(len(eigens), len(colorings)))
	for i := range coloringSelf {
		coloringSelf[i] = colorings[i] - eigens[i]
	}
	normal := med("randx.normal")
	accounted := 0.0
	if block > 0 {
		accounted = (n*dblock + color + apply) / block
	}
	return []metric{
		{"dsp.ifft_us", ifft, "us"},
		{"doppler.block_us", dblock, "us"},
		{"doppler.self_us", dblock - ifft, "us"},
		{"randx.normal_ns", normal * 1e3 / float64(max(1, b.normalsPerRow)), "ns"},
		{"cmplxmat.color_us", color, "us"},
		{"fading.apply_us", apply, "us"},
		{"rayleigh.block_us", block, "us"},
		{"core.self_us", block - n*dblock - color - apply, "us"},
		{"core.replay_self_us", zeroNaN(median(tr.selfTimes("replay.block"))), "us"},
		{"service.encode_us", med("service.encode"), "us"},
		{"http.first_byte_ms_p50", zeroNaN(median(phases.durations("http.first_byte"))) / 1e3, "ms"},
		{"http.frame_gap_us_p50", zeroNaN(median(phases.durations("http.frame"))), "us"},
		{"corrmodel.covariance_us", med("corrmodel.covariance"), "us"},
		{"cmplxmat.eigen_ms", zeroNaN(median(eigens)) / 1e3, "ms"},
		{"core.coloring_self_ms", zeroNaN(median(coloringSelf)) / 1e3, "ms"},
		{"doppler.newgen_us", med("doppler.newgen"), "us"},
		{"rayleigh.newstream_ms", med("rayleigh.newstream") / 1e3, "ms"},
		{"token.sign_us", med("token.sign"), "us"},
		{"token.verify_us", med("token.verify"), "us"},
		{"layers.accounted_ratio", accounted, "ratio"},
	}
}

// childSums returns, for every span named parent, the summed duration in
// microseconds of its children named child (parents without such children
// contribute nothing).
func childSums(tr *tracer, parent, child string) []float64 {
	sums := make(map[int32]float64)
	for _, s := range tr.spans {
		if s.Name == child && s.Parent >= 0 && s.End >= 0 && tr.spans[s.Parent].Name == parent {
			sums[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// movedMetrics are the client-observed latency percentiles of the untraced
// pass that are reported per layer rather than end to end (README.md says
// why), each with its sample count.
func movedMetrics(u *endToEnd) []metric {
	var all []float64
	var count int
	for k := 0; k < numKinds; k++ {
		all = append(all, u.createNorm[k]...)
		count += len(u.createNorm[k])
	}
	return []metric{
		{"first_block_ms_p50", zeroNaN(quantile(u.firstNorm, 0.5)), "ms"},
		{"first_block_ms_p95", zeroNaN(quantile(u.firstNorm, 0.95)), "ms"},
		{"first_block.samples", float64(len(u.firstNorm)), "count"},
		{"create_new_model_ms_p50", zeroNaN(quantile(u.createNorm[kindNewModel], 0.5)), "ms"},
		{"create_new_seed_ms_p50", zeroNaN(quantile(u.createNorm[kindNewSeed], 0.5)), "ms"},
		{"create_repeat_ms_p50", zeroNaN(quantile(u.createNorm[kindRepeat], 0.5)), "ms"},
		{"create_ms_p95", zeroNaN(quantile(all, 0.95)), "ms"},
		{"create.samples", float64(count), "count"},
	}
}

// gapSummary names the largest unaccounted part of a block: the generation
// glue inside the block (core.self_us), or the served path's per-frame time
// beyond generation and encoding.
func (b *bench) gapSummary(ms []metric) string {
	v := make(map[string]float64)
	for _, m := range ms {
		v[m.name] = m.value
	}
	gen := v["core.self_us"]
	served := v["http.frame_gap_us_p50"] - v["rayleigh.block_us"] - v["service.encode_us"]
	gap, name := gen, "core.self_us (generation outside the traced layers)"
	if served > gen {
		gap, name = served, "served path (frame gap beyond generation and encoding)"
	}
	return fmt.Sprintf("layers account for %.1f%% of rayleigh.block_us; largest unaccounted gap: %s, %.1f us per block",
		100*v["layers.accounted_ratio"], name, gap)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// zeroNaN reports an absent measurement (NaN) as 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
