package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	rayleigh "repro"
	"repro/internal/service"
	"repro/internal/token"
)

const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 7
	// minSlices is the fewest slices a timed phase runs, however short.
	minSlices = 5
	// servedShare is the part of --seconds the served phase takes; the
	// library phase takes the rest.
	servedShare = 0.6
	// maxKept bounds the frames kept for the byte-for-byte check.
	maxKept = 48
	// churnCacheSpecs is the setup-cache bound of churn-n32, far below its
	// count of distinct specs, so the LRU evicts.
	churnCacheSpecs = 8
)

// bench runs one workload for one seed.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	in      *inputs
	keyring *token.Keyring
	ops     ledger

	mu     sync.Mutex
	kept   []keptFrame
	tokens []string // tokens from creates, for the traced token timings

	// normalsPerRow is the Gaussian draws of one Doppler row, two per
	// non-zero filter tap; the traced replay sets it.
	normalsPerRow int
}

// keptFrame is one served frame kept for the byte-for-byte check.
type keptFrame struct {
	spec  service.SessionSpec
	key   string // the spec's JSON
	index uint64
	frame []byte
}

func newBench(w *workload, seed int64, seconds float64) (*bench, error) {
	kr, err := token.NewKeyring(token.Key{ID: "bench", Secret: []byte("fadingbench-fixed-signing-secret")})
	if err != nil {
		return nil, fmt.Errorf("keyring: %w", err)
	}
	return &bench{w: w, seed: seed, seconds: seconds, in: newInputs(w, seed), keyring: kr}, nil
}

// env is one running in-process fadingd with the benchmark's two
// connections and, for the Eq. (22) workloads, its long-lived sessions.
type env struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	conns  [2]*conn
	sess   [2]session
	specs  [2]service.SessionSpec
	pos    [2]uint64 // next block each connection reads
	next   [2]int    // churn: each connection's next create
	// cursors are the library phase's cursors over one stream, taken in
	// turn one per slice (see placements), each with its own block.
	cursors [placements]*rayleigh.Cursor
	blocks  [placements]*rayleigh.Block
	libPos  uint64
}

// start brings up fadingd with its defaults plus a token keyring.
func (b *bench) start() (*env, error) {
	cfg := service.Config{Keyring: b.keyring, CreateTimeout: 30 * time.Second}
	if b.w.churn {
		cfg.CacheSpecs = churnCacheSpecs
	}
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute, IdleTimeout: 2 * time.Minute},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for c := range e.conns {
		e.conns[c] = newConn("http://" + ln.Addr().String())
	}
	return e, nil
}

// stop shuts the server down and waits for it.
func (e *env) stop() {
	e.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.served
	e.srv.Close()
	for _, c := range e.conns {
		c.close()
	}
}

// both runs f for the two connections concurrently and returns the sum of
// their work.
func both(f func(c int) float64) float64 {
	var work [2]float64
	var wg sync.WaitGroup
	wg.Add(2)
	for c := 0; c < 2; c++ {
		go func(c int) {
			defer wg.Done()
			work[c] = f(c)
		}(c)
	}
	wg.Wait()
	return work[0] + work[1]
}

// setup starts a server and brings the workload to its steady state: the
// long-lived sessions created, a fixed warm-up block count read on each
// connection, and the library cursor built and warmed.
func (b *bench) setup(tr *tracer) (*env, error) {
	e, err := b.start()
	if err != nil {
		return nil, err
	}
	var errs [2]error
	both(func(c int) float64 {
		if b.w.churn {
			for k := 0; k < b.w.warmServed; k++ {
				b.churnCycle(e, c, tr, nil, 0)
			}
			return 0
		}
		e.specs[c] = eq22Spec(b.w.fading, b.in.SessionSeeds[c])
		s, err := e.conns[c].create(specJSON(e.specs[c]))
		if !b.ops.record(opCreate, err) {
			errs[c] = err
			return 0
		}
		e.sess[c] = s
		b.noteToken(s.Token)
		for read := 0; read < b.w.warmServed; read += b.w.chunk {
			b.readChunk(e, c, tr, nil, 0)
		}
		return 0
	})
	for _, err := range errs {
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	stream, err := newLibStream(b.in.libSpec(b.w))
	for p := 0; err == nil && p < placements; p++ {
		e.cursors[p], err = stream.NewCursor()
		e.blocks[p] = &rayleigh.Block{}
	}
	if err != nil {
		e.stop()
		return nil, fmt.Errorf("setup: library stream: %w", err)
	}
	for p := 0; p < placements; p++ {
		b.libraryBlocks(e, p, b.w.warmLib, tr)
	}
	return e, nil
}

// newLibStream builds the library phase's stream through the public API.
func newLibStream(spec service.SessionSpec) (*rayleigh.Stream, error) {
	k, err := spec.Model.Build()
	if err != nil {
		return nil, err
	}
	rows := make([][]complex128, k.Rows())
	for i := range rows {
		rows[i] = k.Row(i)
	}
	cfg := rayleigh.RealTimeConfig{
		Covariance:        rows,
		IDFTPoints:        spec.IDFTPoints,
		NormalizedDoppler: spec.NormalizedDoppler,
		Seed:              spec.Seed,
		Method:            spec.Method,
		Fading:            spec.Model.Fading,
	}
	if p := spec.Model.Params; p != nil {
		cfg.FadingParams = &rayleigh.FadingParams{M: p.M}
	}
	return rayleigh.NewStream(cfg)
}

func (b *bench) noteToken(tok string) {
	b.mu.Lock()
	if len(b.tokens) < 64 {
		b.tokens = append(b.tokens, tok)
	}
	b.mu.Unlock()
}

// keeper returns the frame hook that keeps the seeded sample of a
// session's frames for the byte-for-byte check. A frame already kept (every
// setup re-reads the same warm-up blocks, and churn repeats specs) is not
// kept twice.
func (b *bench) keeper(spec service.SessionSpec) func(uint64, []byte) {
	return func(index uint64, frame []byte) {
		if !b.in.keepFrame(b.w, spec.Seed, index) {
			return
		}
		key := string(specJSON(spec))
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, k := range b.kept {
			if k.index == index && k.key == key {
				return
			}
		}
		if len(b.kept) < maxKept {
			b.kept = append(b.kept, keptFrame{spec: spec, key: key, index: index, frame: bytes.Clone(frame)})
		}
	}
}

// recorder collects the latency samples of one timed phase.
type recorder struct {
	mu      sync.Mutex
	first   []sample
	creates [numKinds][]sample
}

func (r *recorder) addFirst(d time.Duration, slice int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.first = append(r.first, sample{ms: d.Seconds() * 1e3, slice: slice})
	r.mu.Unlock()
}

func (r *recorder) addCreate(kind int, d time.Duration, slice int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.creates[kind] = append(r.creates[kind], sample{ms: d.Seconds() * 1e3, slice: slice})
	r.mu.Unlock()
}

// readChunk reads the next chunk of connection c's long-lived session and
// returns the envelope samples received.
func (b *bench) readChunk(e *env, c int, tr *tracer, rec *recorder, slice int) float64 {
	chunk := uint64(b.w.chunk)
	if e.pos[c]+chunk > uint64(e.specs[c].Blocks) {
		e.pos[c] = 0
	}
	r := streamReq{id: e.sess[c].ID, from: e.pos[c], count: chunk, n: b.w.n, m: blockLen}
	e.pos[c] += chunk
	frames, first, err := e.conns[c].stream(r, tr, b.keeper(e.specs[c]))
	if b.ops.record(opStreamID, err) {
		rec.addFirst(first, slice)
	}
	return float64(frames * b.w.n * blockLen)
}

// churnCycle runs connection c's next churn create: create, read 4 blocks
// by id, delete, read the next 4 by token (a table miss: token
// verification, setup-cache lookup and adoption), delete again. It returns
// the envelope samples received.
func (b *bench) churnCycle(e *env, c int, tr *tracer, rec *recorder, slice int) float64 {
	op := b.in.Creates[c][e.next[c]%createsPerConn]
	e.next[c]++
	spec := churnSpec(op)
	cn := e.conns[c]
	cs := tr.begin("http.create", -1, "")
	t0 := time.Now()
	s, err := cn.create(specJSON(spec))
	d := time.Since(t0)
	tr.end(cs)
	if !b.ops.record(opCreate, err) {
		return 0
	}
	rec.addCreate(op.Kind, d, slice)
	b.noteToken(s.Token)
	keep := b.keeper(spec)
	half := uint64(churnBlocks / 2)
	frames, first, err := cn.stream(streamReq{id: s.ID, from: 0, count: half, n: b.w.n, m: blockLen}, tr, keep)
	if b.ops.record(opStreamID, err) {
		rec.addFirst(first, slice)
	}
	total := frames
	ds := tr.begin("http.delete", -1, s.ID)
	b.ops.record(opDelete, cn.delete(s.ID))
	tr.end(ds)
	frames, first, err = cn.stream(streamReq{id: s.ID, token: s.Token, from: half, count: half, n: b.w.n, m: blockLen}, tr, keep)
	if b.ops.record(opStreamToken, err) {
		rec.addFirst(first, slice)
	}
	total += frames
	ds = tr.begin("http.delete", -1, s.ID)
	b.ops.record(opDelete, cn.delete(s.ID))
	tr.end(ds)
	return float64(total * b.w.n * blockLen)
}

// libraryBlocks generates the library phase's next count blocks through
// cursor p and returns the envelope samples generated.
func (b *bench) libraryBlocks(e *env, p, count int, tr *tracer) float64 {
	for k := 0; k < count; k++ {
		s := tr.begin("rayleigh.block", -1, "")
		err := e.cursors[p].BlockAt(e.libPos, e.blocks[p])
		tr.end(s)
		if err != nil {
			b.ops.record(opCheck, fmt.Errorf("library block %d: %w", e.libPos, err))
			return 0
		}
		e.libPos++
	}
	return float64(count * b.w.n * blockLen)
}

// served runs the served phase: both connections in a closed loop, each
// performing the workload's per-slice work in every slice.
func (b *bench) served(e *env, m *meter, dur time.Duration, tr *tracer) ([]slice, *recorder) {
	runtime.GOMAXPROCS(2)
	rec := &recorder{}
	slices := m.timed(time.Now().Add(dur), minSlices, func(i int) float64 {
		return both(func(c int) float64 {
			var work float64
			for k := 0; k < b.w.perSlice; k++ {
				if b.w.churn {
					work += b.churnCycle(e, c, tr, rec, i)
				} else {
					work += b.readChunk(e, c, tr, rec, i)
				}
			}
			return work
		})
	})
	return slices, rec
}

// library runs the library phase on one goroutine at GOMAXPROCS 1, slice
// i generating through cursor i mod placements.
func (b *bench) library(e *env, m *meter, dur time.Duration, tr *tracer) []slice {
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(2)
	return m.timed(time.Now().Add(dur), minSlices, func(i int) float64 {
		return b.libraryBlocks(e, i%placements, b.w.libPerSlice, tr)
	})
}

// setups performs setupReps setups, each bracketed by kernel probes, and
// returns the raw and normalized seconds of each. The last setup's server
// stays up for the timed phases.
func (b *bench) setups(m *meter) (*env, []float64, []float64, error) {
	runtime.GOMAXPROCS(2)
	var raw, norm []float64
	var e *env
	for r := 0; r < setupReps; r++ {
		if e != nil {
			e.stop()
		}
		runtime.GC()
		before := m.probe()
		t0 := time.Now()
		var err error
		e, err = b.setup(nil)
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, nil, nil, err
		}
		s := slice{work: 1, seconds: dt, before: before, after: m.probe()}
		raw = append(raw, dt)
		norm = append(norm, dt*s.speed(m.ref))
	}
	return e, raw, norm, nil
}

// endToEnd holds the untraced pass's measurements.
type endToEnd struct {
	setupRaw, setupNorm   float64
	servedRaw, servedNorm float64
	libRaw, libNorm       float64
	rssMB                 float64
	firstRaw, firstNorm   []float64
	createRaw, createNorm [numKinds][]float64
	probe1, probe2        float64    // median kernel rates on 1 and 2 goroutines
	probeSpread           [2]float64 // their interquartile ranges over medians
}

func (b *bench) phaseDurations() (served, lib time.Duration) {
	total := time.Duration(b.seconds * float64(time.Second))
	served = time.Duration(float64(total) * servedShare)
	return served, total - served
}

// measure runs the untraced pass: setups, the served phase, the library
// phase.
func (b *bench) measure() (*endToEnd, error) {
	m1 := newMeter(b.w.newKernel, 1, b.w.reps1, b.w.ref1)
	m2 := newMeter(b.w.newKernel, 2, b.w.reps2, b.w.ref2)
	e, setupRaw, setupNorm, err := b.setups(m2)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	servedDur, libDur := b.phaseDurations()
	servedSlices, rec := b.served(e, m2, servedDur, nil)
	libSlices := b.library(e, m1, libDur, nil)

	r := &endToEnd{setupRaw: median(setupRaw), setupNorm: median(setupNorm)}
	r.servedRaw, r.servedNorm = rates(servedSlices, m2.ref)
	r.libRaw, r.libNorm = rates(libSlices, m1.ref)
	r.firstRaw, r.firstNorm = latencies(rec.first, servedSlices, m2.ref)
	for k := 0; k < numKinds; k++ {
		r.createRaw[k], r.createNorm[k] = latencies(rec.creates[k], servedSlices, m2.ref)
	}
	r.probe1, r.probe2 = median(m1.rates), median(m2.rates)
	r.probeSpread = [2]float64{spread(m1.rates), spread(m2.rates)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	r.rssMB = float64(ru.Maxrss) / 1024
	return r, nil
}
