package slolab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/chanspec"
	"repro/internal/service"
)

// RunOptions configure one scenario execution.
type RunOptions struct {
	// Addr targets an already-running fadingd by base URL (e.g.
	// "http://127.0.0.1:8080"). Empty starts an in-process server on a
	// loopback listener from the spec's ServerSpec — still a live fadingd
	// over real TCP, but with process-level observability (the alloc gate).
	Addr string
	// ArtifactsDir, when set, receives the raw latency samples and the
	// summary JSON of the run (one pair of files per scenario).
	ArtifactsDir string
	// Commit stamps the summary's provenance.
	Commit string
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// Summary is the per-scenario output document: the deterministic fingerprint,
// provenance, per-phase metrics, fault-recovery identity evidence and the
// gate verdicts.
type Summary struct {
	Scenario    string                   `json:"scenario"`
	Description string                   `json:"description,omitempty"`
	Fingerprint Fingerprint              `json:"fingerprint"`
	Provenance  Provenance               `json:"provenance"`
	Phases      map[string]*PhaseMetrics `json:"phases"`
	Identity    *IdentityReport          `json:"identity,omitempty"`
	// Scaling is the horizontal-scaling sweep's report (scaling scenarios
	// only); its per-replica-count phases live in Phases as "replicas=N".
	Scaling *ScalingReport `json:"scaling,omitempty"`
	Gates   []GateResult   `json:"gates"`
	Passed  bool           `json:"passed"`
}

// Fingerprint pins the deterministic portion of a run: every field is a pure
// function of the spec, so two runs of the same spec must produce identical
// fingerprints — the rerun-invariance cmd/slorun's determinism contract (and
// its tests) check.
type Fingerprint struct {
	Scenario   string `json:"scenario"`
	ConfigHash string `json:"config_hash"`
	Seed       int64  `json:"seed"`
	Clients    int    `json:"clients"`
	Fault      string `json:"fault"`
	// Units echoes the per-client phase plan.
	Units map[string]int `json:"units"`
	// PlannedBlocks is the deterministic total of blocks the workload
	// streams across all phases and clients (0 for spec_churn, which only
	// creates).
	PlannedBlocks uint64 `json:"planned_blocks"`
}

// Provenance records where and when the numbers came from.
type Provenance struct {
	Commit    string `json:"commit,omitempty"`
	GoVersion string `json:"go_version"`
	// Addr is the external target; empty for in-process runs.
	Addr      string `json:"addr,omitempty"`
	InProcess bool   `json:"in_process"`
	StartedAt string `json:"started_at"`
}

// PhaseMetrics aggregates one phase across all clients.
type PhaseMetrics struct {
	// Requests counts stream HTTP requests; Creates/Deletes session
	// lifecycle operations.
	Requests int `json:"requests"`
	Creates  int `json:"creates,omitempty"`
	Deletes  int `json:"deletes,omitempty"`
	// Blocks and Bytes count complete frames received and their wire size.
	Blocks uint64 `json:"blocks"`
	Bytes  int64  `json:"bytes"`
	// Errors counts unrecovered operation failures (a stream that stalled
	// out of attempts, a create that exhausted its retries).
	Errors int `json:"errors"`
	// Rejections counts 429/503 overload answers; RetryAfterSeen how many
	// carried a usable Retry-After header.
	Rejections     int `json:"rejections,omitempty"`
	RetryAfterSeen int `json:"retry_after_seen,omitempty"`
	// Retries counts backoff-delayed retries; Resumes mid-stream ?from
	// recoveries; Cuts client-injected connection kills; Truncations
	// trailer-confirmed server-side truncations.
	Retries     int `json:"retries,omitempty"`
	Resumes     int `json:"resumes,omitempty"`
	Cuts        int `json:"cuts,omitempty"`
	Truncations int `json:"truncations,omitempty"`
	// Seconds is the phase wall time; BlocksPerSec the served-block rate.
	Seconds      float64 `json:"seconds"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
	// AllocBytes is the process-wide heap allocation during the phase
	// (client harness included; in-process runs only), AllocBytesPerBlock
	// its per-served-block quotient.
	AllocBytes         uint64  `json:"alloc_bytes,omitempty"`
	AllocBytesPerBlock float64 `json:"alloc_bytes_per_block,omitempty"`
	// BlockLatency digests inter-block arrival times; CreateLatency the
	// create round trips (backoff sleeps included).
	BlockLatency  LatencySummary `json:"block_latency"`
	CreateLatency LatencySummary `json:"create_latency"`
}

// IdentityReport is the kill_resume fault's byte-identity evidence: after the
// faulted inject phase, every client re-streams the same block range over an
// unfaulted connection and compares SHA-256 sums.
type IdentityReport struct {
	Clients int `json:"clients"`
	Matched int `json:"matched"`
	// MismatchedClients lists the client indexes whose reassembled stream
	// differed from the clean reference (empty on success).
	MismatchedClients []int `json:"mismatched_clients,omitempty"`
	// Cuts and Resumes echo the inject phase's fault activity, so the
	// report shows the identity was proven under real interruptions.
	Cuts    int `json:"cuts"`
	Resumes int `json:"resumes"`
}

// labClient is one seeded client of the population.
type labClient struct {
	idx int
	// client is the steady keep-alive client; churn swaps in a
	// keep-alive-disabled transport during conn_churn injection so every
	// request pays connection setup.
	client *Client
	churn  *Client
	// session is the streaming workloads' long-lived session.
	session *SessionInfo
	// injectSum and refSum are the kill_resume identity hashes.
	injectSum string
	refSum    string
}

// phaseAccum collects one phase's metrics across client goroutines.
type phaseAccum struct {
	mu     sync.Mutex
	m      PhaseMetrics
	block  *Sampler
	create *Sampler
}

func newPhaseAccum() *phaseAccum {
	return &phaseAccum{block: &Sampler{}, create: &Sampler{}}
}

// addStream folds one StreamResult into the accumulator.
func (a *phaseAccum) addStream(res *StreamResult, failed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.Requests += res.Requests
	a.m.Blocks += res.Blocks
	a.m.Bytes += res.Bytes
	a.m.Retries += res.Retries
	a.m.Resumes += res.Resumes
	a.m.Cuts += res.Cuts
	a.m.Truncations += res.Truncations
	if failed {
		a.m.Errors++
	}
}

// addCreate folds one create outcome into the accumulator.
func (a *phaseAccum) addCreate(stats CreateStats, failed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.Creates++
	a.m.Rejections += stats.Rejections
	a.m.RetryAfterSeen += stats.RetryAfterSeen
	if stats.Attempts > 1 {
		a.m.Retries += stats.Attempts - 1
	}
	if failed {
		a.m.Errors++
	}
}

func (a *phaseAccum) addDelete(failed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if failed {
		a.m.Errors++
	} else {
		a.m.Deletes++
	}
}

func (a *phaseAccum) addRejection(rej *Rejection) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.Rejections++
	if rej.HasRetryAfter {
		a.m.RetryAfterSeen++
	}
}

func (a *phaseAccum) addError() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.Errors++
}

// engine holds one run's state.
type engine struct {
	spec    *Spec
	opts    RunOptions
	base    string
	inProc  bool
	clients []*labClient
	// pool is the external spec_churn template pool (Fault.SpecFile); empty
	// means cold creates reseed the scenario's own session template.
	pool []service.SessionSpec
}

// Run executes one scenario end to end and returns its summary (gates
// evaluated). An error means the lab itself could not run — spec problems,
// server startup, an unservable primary session; service misbehavior under
// fault is reported through metrics and failed gates instead.
func Run(spec *Spec, opts RunOptions) (*Summary, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &engine{spec: spec, opts: opts, base: opts.Addr, inProc: opts.Addr == ""}
	if spec.Scaling != nil {
		return e.runScalingSweep()
	}
	if spec.Fault.SpecFile != "" {
		pool, err := LoadSessionPool(spec.Fault.SpecFile)
		if err != nil {
			return nil, err
		}
		e.pool = pool
	}

	if e.inProc {
		base, stop, err := service.ServeLoopback(spec.Server.config())
		if err != nil {
			return nil, fmt.Errorf("slolab: %w", err)
		}
		e.base = base
		defer stop()
	}
	e.logf("scenario %s: fault=%s clients=%d target=%s", spec.Name, spec.Fault.Type, spec.Clients, e.base)

	// Build the seeded population. Each client owns two transports so
	// conn_churn can disable keep-alives during inject without touching the
	// steady path.
	e.clients = make([]*labClient, spec.Clients)
	for i := range e.clients {
		e.clients[i] = &labClient{
			idx: i,
			client: NewClient(ClientConfig{
				Base: e.base,
				HTTP: &http.Client{Transport: &http.Transport{}},
				Seed: spec.Seed + int64(i),
			}),
			churn: NewClient(ClientConfig{
				Base: e.base,
				HTTP: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
				Seed: spec.Seed + int64(i) + 1<<32,
			}),
		}
	}

	sum := e.newSummary()

	samples := map[string]*phaseAccum{}
	for _, name := range phaseOrder {
		acc := newPhaseAccum()
		if err := e.runPhase(name, acc); err != nil {
			return nil, err
		}
		samples[name] = acc
		sum.Phases[name] = &acc.m
		e.logf("scenario %s: %s done: %d blocks, %d creates, %d errors in %.2fs",
			spec.Name, name, acc.m.Blocks, acc.m.Creates, acc.m.Errors, acc.m.Seconds)
		// The identity verification runs between inject and recover, while
		// the faulted sessions are still alive.
		if name == PhaseInject && spec.Fault.Type == FaultKillResume {
			sum.Identity = e.verifyIdentity(&acc.m)
			e.logf("scenario %s: identity: %d/%d matched", spec.Name, sum.Identity.Matched, sum.Identity.Clients)
		}
	}

	Evaluate(spec, sum)
	if opts.ArtifactsDir != "" {
		if err := writeArtifacts(opts.ArtifactsDir, spec.Name, sum, samples); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// newSummary builds the empty summary shell with fingerprint and provenance.
func (e *engine) newSummary() *Summary {
	return &Summary{
		Scenario:    e.spec.Name,
		Description: e.spec.Description,
		Fingerprint: fingerprint(e.spec),
		Provenance: Provenance{
			Commit:    e.opts.Commit,
			GoVersion: runtime.Version(),
			Addr:      e.opts.Addr,
			InProcess: e.inProc,
			StartedAt: time.Now().UTC().Format(time.RFC3339),
		},
		Phases: map[string]*PhaseMetrics{},
	}
}

func (e *engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// fingerprint derives the deterministic run fingerprint from the spec.
func fingerprint(spec *Spec) Fingerprint {
	units := map[string]int{
		PhaseWarmup:  spec.Phases.Warmup.Units,
		PhaseInject:  spec.Phases.Inject.Units,
		PhaseRecover: spec.Phases.Recover.Units,
	}
	total := spec.Phases.Warmup.Units + spec.Phases.Inject.Units + spec.Phases.Recover.Units
	var planned uint64
	switch {
	case spec.Scaling != nil:
		// Each sweep point streams warmup+inject units per client; recover is
		// unused.
		planned = uint64(spec.Clients) *
			uint64(spec.Phases.Warmup.Units+spec.Phases.Inject.Units) *
			uint64(len(spec.Scaling.Replicas))
	case spec.Fault.streamingFault():
		planned = uint64(spec.Clients) * uint64(total)
	case spec.Fault.Type == FaultConnChurn:
		planned = uint64(spec.Clients) * uint64(total) * uint64(spec.Fault.blocksPerConn())
	}
	return Fingerprint{
		Scenario:      spec.Name,
		ConfigHash:    spec.ConfigHash(),
		Seed:          spec.Seed,
		Clients:       spec.Clients,
		Fault:         spec.Fault.Type,
		Units:         units,
		PlannedBlocks: planned,
	}
}

// sessionJSON renders the session template with a concrete seed.
func (e *engine) sessionJSON(seed int64) []byte {
	spec := e.spec.Session
	spec.Seed = seed
	data, err := json.Marshal(&spec)
	if err != nil {
		// A validated template cannot fail to encode.
		panic(err)
	}
	return data
}

// poolJSON renders pool template i (cycling) with a concrete seed — the
// spec_churn cold-create path when Fault.SpecFile supplies an external pool.
func (e *engine) poolJSON(i int, seed int64) []byte {
	spec := e.pool[i%len(e.pool)]
	spec.Seed = seed
	data, err := json.Marshal(&spec)
	if err != nil {
		// A validated template cannot fail to encode.
		panic(err)
	}
	return data
}

// LoadSessionPool reads a JSON array of seed-zero session templates — the
// sessions.json a corpus expansion emits — and validates each against the
// service's default limits, so a pool problem fails the run up front instead
// of surfacing as create errors folded into the fault metrics.
func LoadSessionPool(path string) ([]service.SessionSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slolab: session pool: %w", err)
	}
	var pool []service.SessionSpec
	if err := chanspec.DecodeStrict(bytes.NewReader(data), &pool); err != nil {
		return nil, fmt.Errorf("slolab: session pool %s: %w: %w", path, ErrBadSpec, err)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("slolab: session pool %s is empty: %w", path, ErrBadSpec)
	}
	for i := range pool {
		if pool[i].Seed != 0 {
			return nil, fmt.Errorf("slolab: session pool %s template %d carries seed %d, want 0: %w",
				path, i, pool[i].Seed, ErrBadSpec)
		}
		if err := pool[i].Validate(service.Limits{}); err != nil {
			return nil, fmt.Errorf("slolab: session pool %s template %d: %w", path, i, err)
		}
	}
	return pool, nil
}

// runPhase executes one phase under wall-clock and (in-process) allocation
// measurement, then finalizes the accumulated metrics.
func (e *engine) runPhase(name string, acc *phaseAccum) error {
	var ms0 runtime.MemStats
	if e.inProc {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	var err error
	if e.spec.Fault.streamingFault() {
		err = e.runStreamPhase(name, acc)
	} else {
		e.runChurnPhase(name, acc)
	}
	acc.m.Seconds = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if e.inProc {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		acc.m.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	if acc.m.Seconds > 0 {
		acc.m.BlocksPerSec = float64(acc.m.Blocks) / acc.m.Seconds
	}
	if acc.m.Blocks > 0 && acc.m.AllocBytes > 0 {
		acc.m.AllocBytesPerBlock = float64(acc.m.AllocBytes) / float64(acc.m.Blocks)
	}
	acc.m.BlockLatency = acc.block.Summary()
	acc.m.CreateLatency = acc.create.Summary()
	return nil
}

// runStreamPhase drives the steady-streaming workloads (faults none,
// slow_consumer, saturate, kill_resume): every client streams the phase's
// block range [0, units) through the resume loop, with the fault applied
// during inject only. Warmup additionally creates the long-lived sessions;
// recover deletes them after its pass.
func (e *engine) runStreamPhase(name string, acc *phaseAccum) error {
	if name == PhaseWarmup {
		if err := e.createSessions(acc); err != nil {
			return err
		}
	}
	units := e.spec.Phases.phase(name).Units
	inject := name == PhaseInject
	var wg sync.WaitGroup
	for _, lc := range e.clients {
		wg.Add(1)
		go func(lc *labClient) {
			defer wg.Done()
			if inject && e.spec.Fault.Type == FaultSaturate {
				e.fireDoomedCreates(lc, acc)
			}
			if units > 0 {
				opts := StreamOptions{
					Count:      uint64(units),
					PerRequest: e.spec.blocksPerRequest(),
					Sampler:    acc.block,
				}
				if inject {
					switch e.spec.Fault.Type {
					case FaultSlowConsumer:
						opts.ThrottleBytesPerSec = e.spec.Fault.BytesPerSec
					case FaultKillResume:
						opts.CutBlocks = e.spec.Fault.CutBlocks
						opts.CutMidBlock = e.spec.Fault.CutMidBlock
					}
				}
				res, err := lc.client.Stream(lc.session, opts)
				acc.addStream(res, err != nil)
				if inject && e.spec.Fault.Type == FaultKillResume {
					lc.injectSum = res.Sum256
				}
			}
			if name == PhaseRecover {
				acc.addDelete(lc.client.Delete(lc.session.ID) != nil)
			}
		}(lc)
	}
	wg.Wait()
	return nil
}

// createSessions establishes every client's long-lived session, seeded
// Seed+idx; the creates and their latency land in the warmup metrics. A
// primary session that cannot be created is fatal — nothing downstream is
// meaningful without it.
func (e *engine) createSessions(acc *phaseAccum) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.clients))
	for _, lc := range e.clients {
		wg.Add(1)
		go func(lc *labClient) {
			defer wg.Done()
			specJSON := e.sessionJSON(e.spec.Seed + int64(lc.idx))
			t0 := time.Now()
			info, stats, err := lc.client.Create(specJSON)
			acc.create.Record(time.Since(t0))
			acc.addCreate(stats, err != nil)
			if err != nil {
				errs[lc.idx] = err
				return
			}
			lc.session = info
		}(lc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("slolab: primary session: %w", err)
		}
	}
	return nil
}

// fireDoomedCreates is the saturate fault: ExtraSessions single-shot creates
// against a table the primaries keep exactly full, each expected to come back
// as a structured overload rejection. An accepted doomed create is deleted
// and counted as an error (the cap failed to hold).
func (e *engine) fireDoomedCreates(lc *labClient, acc *phaseAccum) {
	for i := 0; i < e.spec.Fault.ExtraSessions; i++ {
		seed := e.spec.Seed + 1<<20 + int64(lc.idx*e.spec.Fault.ExtraSessions+i)
		info, rej, err := lc.client.TryCreate(e.sessionJSON(seed))
		switch {
		case err != nil:
			acc.addError()
		case rej != nil:
			acc.addRejection(rej)
		default:
			acc.addError()
			lc.client.Delete(info.ID)
		}
	}
}

// verifyIdentity re-streams the inject range cleanly for every client and
// compares hashes against the faulted pass. The verification traffic is not
// folded into any phase's metrics — it is evidence, not workload.
func (e *engine) verifyIdentity(inject *PhaseMetrics) *IdentityReport {
	units := uint64(e.spec.Phases.Inject.Units)
	var wg sync.WaitGroup
	for _, lc := range e.clients {
		wg.Add(1)
		go func(lc *labClient) {
			defer wg.Done()
			res, err := lc.client.Stream(lc.session, StreamOptions{
				Count:      units,
				PerRequest: e.spec.blocksPerRequest(),
			})
			if err == nil {
				lc.refSum = res.Sum256
			}
		}(lc)
	}
	wg.Wait()
	rep := &IdentityReport{
		Clients: len(e.clients),
		Cuts:    inject.Cuts,
		Resumes: inject.Resumes,
	}
	for _, lc := range e.clients {
		if lc.refSum != "" && lc.injectSum == lc.refSum {
			rep.Matched++
		} else {
			rep.MismatchedClients = append(rep.MismatchedClients, lc.idx)
		}
	}
	return rep
}

// runChurnPhase drives the create/stream/delete workloads (faults conn_churn
// and spec_churn): every client performs units iterations. conn_churn streams
// blocksPerConn blocks per iteration and disables keep-alives during inject;
// spec_churn skips streaming and switches from one shared warm spec to a
// fresh cold spec per create during inject.
func (e *engine) runChurnPhase(name string, acc *phaseAccum) {
	units := e.spec.Phases.phase(name).Units
	if units == 0 {
		return
	}
	inject := name == PhaseInject
	connChurn := e.spec.Fault.Type == FaultConnChurn
	var wg sync.WaitGroup
	for _, lc := range e.clients {
		wg.Add(1)
		go func(lc *labClient) {
			defer wg.Done()
			cl := lc.client
			if inject && connChurn {
				cl = lc.churn
			}
			for i := 0; i < units; i++ {
				// Warm iterations share one spec (setup-cache hits); cold
				// spec_churn injection derives a unique seed per create and —
				// with an external pool — cycles through distinct templates.
				seed := e.spec.Seed - 1
				cold := inject && !connChurn
				if cold {
					seed = e.spec.Seed + 1<<20 + int64(lc.idx*units+i)
				}
				var specJSON []byte
				if cold && len(e.pool) > 0 {
					specJSON = e.poolJSON(lc.idx*units+i, seed)
				} else {
					specJSON = e.sessionJSON(seed)
				}
				t0 := time.Now()
				info, stats, err := cl.Create(specJSON)
				acc.create.Record(time.Since(t0))
				acc.addCreate(stats, err != nil)
				if err != nil {
					continue
				}
				if connChurn {
					res, serr := cl.Stream(info, StreamOptions{
						Count:      uint64(e.spec.Fault.blocksPerConn()),
						PerRequest: e.spec.Fault.blocksPerConn(),
						Sampler:    acc.block,
					})
					acc.addStream(res, serr != nil)
				}
				acc.addDelete(cl.Delete(info.ID) != nil)
			}
		}(lc)
	}
	wg.Wait()
}
