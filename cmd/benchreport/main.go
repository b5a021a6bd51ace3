// Command benchreport runs the engine's throughput benchmark families
// (snapshot generation and real-time block generation, each at N = 3 and
// N = 16, allocating and Into variants, plus the per-backend batched paths of
// the method registry and the fadingd session-create path cold and warm
// against the setup cache) through testing.Benchmark and writes the results
// as JSON: ns/op, allocs/op, bytes/op and the derived samples/sec. It is the
// one definition of these families. The committed BENCH_core.json at the repository root is the
// output of one run, giving future changes a perf trajectory to compare
// against:
//
//	go run ./cmd/benchreport -o BENCH_core.json
//
// With -compare the command doubles as the CI benchmark-regression gate: the
// fresh results are checked against a committed baseline report and the
// process exits non-zero when any benchmark's ns/op regresses by more than
// -tolerance, its allocs/op grows at all, or it disappears from the run. The
// run must have the GOMAXPROCS the baseline records, or the command exits
// before benchmarking. Under -compare the fresh report is written only where
// -o names:
//
//	GOMAXPROCS=1 go run ./cmd/benchreport -o /tmp/bench.json -compare BENCH_core.json -tolerance 0.25
//
// With -slo-compare the command instead gates a fresh cmd/slorun document
// against the committed BENCH_slo.json (no core benchmarks are run): every
// baseline scenario must still exist with the same config hash, pass its own
// release gates, not grow its error counters, and keep inject/recover latency
// percentiles within -slo-tolerance (plus the -slo-slack-ms noise floor):
//
//	go run ./cmd/slorun -all -q -out /tmp/slo.json
//	go run ./cmd/benchreport -slo-compare BENCH_slo.json -slo-current /tmp/slo.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	rayleigh "repro"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/doppler"
	"repro/internal/scenario"
	"repro/internal/service"
)

type result struct {
	// Name is the family, the target and the variant, e.g.
	// "SnapshotGenerationThroughput/N=16/into".
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SamplesPerOp int     `json:"samples_per_op"`
	// SamplesPerSec is the envelope-sample throughput SamplesPerOp/(ns/op).
	SamplesPerSec float64 `json:"samples_per_sec"`
}

type report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []result `json:"benchmarks"`
}

// exponentialCovariance is the scalable N = 16 target K[i][j] = 0.7^|i-j|,
// built through the canonical scenario model.
func exponentialCovariance(n int) *cmplxmat.Matrix {
	m := scenario.ModelSpec{Type: scenario.ModelExponential, N: n, Rho: 0.7}
	k, err := m.Build()
	if err != nil {
		fatalf("exponential covariance: %v", err)
	}
	return k
}

func measure(name string, samplesPerOp int, fn func(b *testing.B)) result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return result{
		Name:          name,
		NsPerOp:       ns,
		AllocsPerOp:   r.AllocsPerOp(),
		BytesPerOp:    r.AllocedBytesPerOp(),
		SamplesPerOp:  samplesPerOp,
		SamplesPerSec: float64(samplesPerOp) * 1e9 / ns,
	}
}

func snapshotBenchmarks(name string, k *cmplxmat.Matrix) []result {
	n := k.Rows()
	newGen := func() *core.SnapshotGenerator {
		gen, err := core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: k, Seed: 61})
		if err != nil {
			fatalf("snapshot generator %s: %v", name, err)
		}
		return gen
	}
	genAlloc := newGen()
	genInto := newGen()
	return []result{
		measure("SnapshotGenerationThroughput/"+name, n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = genAlloc.Generate()
			}
		}),
		measure("SnapshotGenerationThroughput/"+name+"/into", n, func(b *testing.B) {
			gaussian := make([]complex128, n)
			env := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := genInto.GenerateInto(gaussian, env); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

func realTimeBenchmarks(name string, k *cmplxmat.Matrix) []result {
	gen, err := core.NewRealTimeGenerator(core.RealTimeConfig{
		Covariance:    k,
		Filter:        doppler.FilterSpec{M: 4096, NormalizedDoppler: 0.05},
		InputVariance: 0.5,
		Seed:          67,
	})
	if err != nil {
		fatalf("real-time generator %s: %v", name, err)
	}
	scratch := gen.NewBlockScratch()
	samples := gen.N() * gen.BlockLength()
	return []result{
		measure("RealTimeBlockThroughput/"+name, samples, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := gen.GenerateBlockAt(uint64(i), core.NewBlock(gen.N(), gen.BlockLength()), scratch); err != nil {
					b.Fatal(err)
				}
			}
		}),
		measure("RealTimeBlockThroughput/"+name+"/into", samples, func(b *testing.B) {
			blk := core.NewBlock(gen.N(), gen.BlockLength())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gen.GenerateBlockAt(uint64(i), blk, scratch); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

// backendBatchSize is the snapshots-per-op of the per-backend batched
// benchmarks (a whole number of 64-snapshot chunks).
const backendBatchSize = 1024

// batchedThroughput measures SnapshotsInto of one public generator, built by
// rayleigh.New for cfg, into a pre-shaped batch of backendBatchSize
// snapshots.
func batchedThroughput(row string, cfg rayleigh.Config) result {
	gen, err := rayleigh.New(cfg)
	if err != nil {
		fatalf("%s: %v", row, err)
	}
	n := gen.N()
	batch := make([]rayleigh.Snapshot, backendBatchSize)
	for i := range batch {
		batch[i].Gaussian = make([]complex128, n)
		batch[i].Envelopes = make([]float64, n)
	}
	return measure(row, n*backendBatchSize, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := gen.SnapshotsInto(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// backendBenchmarks measures every generation method's batched path on the
// same covariance target, so method overhead regressions are gated like the
// core engine's. The name scheme is "BackendBatchedThroughput/<target>/<method>".
func backendBenchmarks(name string, k *cmplxmat.Matrix, methods []string) []result {
	var out []result
	for _, method := range methods {
		out = append(out, batchedThroughput("BackendBatchedThroughput/"+name+"/"+method,
			rayleigh.Config{Covariance: k.ToRows(), Seed: 71, Method: method}))
	}
	return out
}

// fadingModelBenchmarks measures the batched snapshot path per channel model:
// each fading model wraps the generalized backend on the same covariance
// target, so the marginal cost of the per-sample envelope transform (Rician
// LOS shift, Nakagami probability-integral transform, Suzuki lognormal
// shadowing) is gated separately from the underlying engine. The name scheme
// extends the backend family: "BackendBatchedThroughput/<target>/generalized/<model>".
func fadingModelBenchmarks(name string, k *cmplxmat.Matrix) []result {
	models := []struct {
		fading string
		params *chanspec.FadingParams
	}{
		{chanspec.FadingRician, &chanspec.FadingParams{KFactor: 4}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
		{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}},
	}
	var out []result
	for _, m := range models {
		out = append(out, batchedThroughput("BackendBatchedThroughput/"+name+"/generalized/"+m.fading,
			rayleigh.Config{Covariance: k.ToRows(), Seed: 71, Fading: m.fading, FadingParams: m.params}))
	}
	return out
}

// nonstationaryBenchmark measures the real-time block path under a two-leg
// Doppler trajectory (the only mode the nonstationary model supports — it has
// no snapshot form). The segment seam sits inside the measured range, so the
// per-segment panel dispatch is part of the gated cost.
func nonstationaryBenchmark(name string, k *cmplxmat.Matrix) []result {
	gen, err := core.NewRealTimeGenerator(core.RealTimeConfig{
		Covariance:    k,
		Filter:        doppler.FilterSpec{M: 4096},
		InputVariance: 0.5,
		Seed:          67,
		DopplerSegments: []chanspec.DopplerSegment{
			{Blocks: 8, NormalizedDoppler: 0.02},
			{Blocks: 8, NormalizedDoppler: 0.1},
		},
	})
	if err != nil {
		fatalf("nonstationary generator %s: %v", name, err)
	}
	scratch := gen.NewBlockScratch()
	samples := gen.N() * gen.BlockLength()
	return []result{
		measure("RealTimeBlockThroughput/"+name+"/nonstationary_doppler", samples, func(b *testing.B) {
			blk := core.NewBlock(gen.N(), gen.BlockLength())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gen.GenerateBlockAt(uint64(i), blk, scratch); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

// sessionCreateBenchmarks measures the fadingd session-create path: cold is
// a distinct spec per op (every create pays the full
// covariance/eigen/Doppler-plan setup), warm is one spec repeated (every
// create after the first reuses the content-addressed setup artifact). The
// cold/warm gap is the cache's win and is gated like every other family.
func sessionCreateBenchmarks(n int) []result {
	svc := service.New(service.Config{MaxSessions: -1})
	defer svc.Close()
	mgr := svc.Manager()
	spec := func(seed int64) *service.SessionSpec {
		return &service.SessionSpec{
			Model:      chanspec.Model{Type: chanspec.ModelExponential, N: n, Rho: 0.7},
			Seed:       seed,
			Blocks:     16,
			IDFTPoints: 2048,
		}
	}
	create := func(b *testing.B, s *service.SessionSpec) {
		sess, err := mgr.Create(s)
		if err != nil {
			b.Fatal(err)
		}
		mgr.Delete(sess.ID)
	}
	name := fmt.Sprintf("N=%d", n)
	// The seed counter lives outside the closure: testing.Benchmark reruns
	// it with growing b.N against the one shared server, and a restarted
	// seed sequence would hit artifacts cached by earlier probe runs.
	var coldSeed int64
	return []result{
		measure("SessionCreate/"+name+"/cold", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSeed++
				create(b, spec(coldSeed))
			}
		}),
		measure("SessionCreate/"+name+"/warm", 1, func(b *testing.B) {
			warm := spec(-1)
			create(b, warm) // prime the cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				create(b, warm)
			}
		}),
	}
}

// reportPath resolves where the fresh report goes: the -o path when one is
// given, else BENCH_core.json, or no file at all ("") under -compare, so
// that the gate never rewrites the baseline it reads unless -o asks.
func reportPath(out, compare string) string {
	if out == "" && compare == "" {
		return "BENCH_core.json"
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchreport: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "", "output file ('-' for stdout; default BENCH_core.json, or none with -compare)")
	comparePath := flag.String("compare", "", "baseline report to gate against (e.g. BENCH_core.json)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression vs the baseline")
	sloBaseline := flag.String("slo-compare", "", "baseline BENCH_slo.json to gate a fresh SLO document against")
	sloCurrent := flag.String("slo-current", "", "fresh BENCH_slo.json from cmd/slorun (required with -slo-compare; skips the core benchmark run)")
	sloTolerance := flag.Float64("slo-tolerance", 0.5, "allowed fractional latency regression vs the SLO baseline")
	sloSlackMs := flag.Float64("slo-slack-ms", 5, "absolute latency slack in ms a regression must also exceed (noise floor for sub-ms percentiles)")
	flag.Parse()

	// SLO-compare mode gates two existing cmd/slorun documents against each
	// other and never runs the (slow) core benchmark families.
	if *sloBaseline != "" || *sloCurrent != "" {
		if *sloBaseline == "" || *sloCurrent == "" {
			fatalf("-slo-compare and -slo-current must be used together")
		}
		runSLOCompare(*sloBaseline, *sloCurrent, *sloTolerance, *sloSlackMs)
		return
	}

	outPath := reportPath(*out, *comparePath)
	var baseline report
	if *comparePath != "" {
		var err error
		if baseline, err = loadReport(*comparePath); err != nil {
			fatalf("baseline: %v", err)
		}
		if err := checkGOMAXPROCS(baseline, runtime.GOMAXPROCS(0)); err != nil {
			fatalf("%v", err)
		}
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	targets := []struct {
		name string
		k    *cmplxmat.Matrix
	}{
		{"N=3", chanspec.Eq22Covariance()},
		{"N=16", exponentialCovariance(16)},
	}
	for _, t := range targets {
		rep.Benchmarks = append(rep.Benchmarks, snapshotBenchmarks(t.name, t.k)...)
	}
	for _, t := range targets {
		rep.Benchmarks = append(rep.Benchmarks, realTimeBenchmarks(t.name, t.k)...)
	}
	// Per-backend batched benchmarks: the equal-power real spatial matrix is
	// inside every N = 3-capable method's vocabulary, and the two-branch pair
	// covers Ertel–Reed.
	spatial := scenario.ModelSpec{Type: scenario.ModelSpatial, N: 3, SpacingWavelengths: 1, AngularSpreadRad: 0.17453292519943295}
	eq23, err := spatial.Build()
	if err != nil {
		fatalf("spatial covariance: %v", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, backendBenchmarks("N=3", eq23, []string{
		chanspec.MethodGeneralized,
		chanspec.MethodSalzWinters,
		chanspec.MethodBeaulieuMerani,
		chanspec.MethodNatarajan,
		chanspec.MethodSorooshyariDaut,
	})...)
	pairModel := scenario.ModelSpec{Type: scenario.ModelConstant, N: 2, Rho: 0.6}
	pair, err := pairModel.Build()
	if err != nil {
		fatalf("two-branch covariance: %v", err)
	}
	rep.Benchmarks = append(rep.Benchmarks, backendBenchmarks("N=2", pair, []string{
		chanspec.MethodErtelReed,
	})...)
	// Per-model batched benchmarks (channel-model zoo, docs/models.md): the
	// composite envelope models on the snapshot path, the trajectory model on
	// the real-time path it requires.
	rep.Benchmarks = append(rep.Benchmarks, fadingModelBenchmarks("N=3", eq23)...)
	rep.Benchmarks = append(rep.Benchmarks, nonstationaryBenchmark("N=3", chanspec.Eq22Covariance())...)
	rep.Benchmarks = append(rep.Benchmarks, sessionCreateBenchmarks(16)...)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	switch outPath {
	case "":
	case "-":
		os.Stdout.Write(data)
	default:
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			fatalf("write %s: %v", outPath, err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", outPath, len(rep.Benchmarks))
	}

	if *comparePath == "" {
		return
	}
	comparisons, ok := compareReports(baseline, rep, *tolerance)
	fmt.Print(formatComparisons(comparisons, *tolerance))
	if !ok {
		fatalf("benchmark regression beyond %+.0f%% vs %s", 100**tolerance, *comparePath)
	}
	fmt.Printf("benchmark gate passed: %d benchmarks within %+.0f%% of %s\n",
		len(comparisons), 100**tolerance, *comparePath)
}
