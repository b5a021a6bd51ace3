// Package slolab is the fault-injecting load harness of this repository: a
// declarative SLO scenario names a seeded client population, a session spec,
// an in-process server configuration, a three-phase execution plan
// (warmup / inject / recover), one fault from a small catalog, and a list of
// independent release gates over latency percentiles, error rates,
// truncated-stream rates, allocation budgets, byte-identical fault recovery
// and Retry-After coverage. The engine (Run) drives a live fadingd — an
// in-process loopback server by default, or any deployment by address —
// through the plan with the resuming Client, and emits deterministic
// artifacts: raw latency samples, a summary JSON whose non-timing fields are
// a pure function of the spec (Fingerprint), and provenance (commit, config
// hash). cmd/slorun runs the specs of scenarios/slo/ from the command line
// and CI, recording the combined document as BENCH_slo.json next to
// BENCH_core.json; cmd/benchreport -slo-compare gates fresh runs against the
// committed baseline. See docs/slo.md for the schema, fault catalog and gate
// definitions.
package slolab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/chanspec"
	"repro/internal/service"
)

// ErrBadSpec reports an invalid SLO scenario specification (the shared
// chanspec sentinel, so model errors match the same errors.Is target).
var ErrBadSpec = service.ErrBadSpec

// Phase names of the three-phase execution plan.
const (
	PhaseWarmup  = "warmup"
	PhaseInject  = "inject"
	PhaseRecover = "recover"
)

// phaseOrder is the canonical execution and reporting order.
var phaseOrder = []string{PhaseWarmup, PhaseInject, PhaseRecover}

// Fault types of the catalog. The fault is active during the inject phase
// only; warmup and recover run the same workload clean, so the recover gates
// measure how the service exits the fault.
const (
	// FaultNone runs the plain streaming workload in every phase (baseline
	// scenarios: the gates are the whole point).
	FaultNone = "none"
	// FaultSlowConsumer throttles the client's read side to BytesPerSec: a
	// reader slower than the server may hold up only its own stream.
	FaultSlowConsumer = "slow_consumer"
	// FaultConnChurn replaces steady streaming with a create → stream →
	// delete loop over fresh connections (keep-alives disabled during
	// inject), exercising connection setup, the session table and TTL
	// bookkeeping under storm conditions.
	FaultConnChurn = "conn_churn"
	// FaultSpecChurn replaces streaming with a create/delete loop: warm
	// (one shared spec, setup-cache hits) outside the inject phase, cold (a
	// fresh spec per create, full O(N³) setup) during it.
	FaultSpecChurn = "spec_churn"
	// FaultSaturate keeps the steady streaming workload and additionally
	// fires ExtraSessions doomed creates per client during inject against a
	// full session table, gating that every rejection is a structured 429
	// with Retry-After.
	FaultSaturate = "saturate"
	// FaultKillResume cuts the client's stream connection mid-transfer at
	// the configured block cut points; the resuming client must recover via
	// ?from and the reassembled payload must be byte-identical to an
	// unfaulted reference stream.
	FaultKillResume = "kill_resume"
)

// Gate types. Each gate is evaluated independently; a scenario passes only
// when every gate passes.
const (
	// GateLatency bounds p50/p95/p99 of one phase's block (or create)
	// latency samples.
	GateLatency = "latency"
	// GateErrorRate bounds unrecovered failures per operation.
	GateErrorRate = "error_rate"
	// GateTruncatedRate bounds cut or truncated streams per stream request.
	GateTruncatedRate = "truncated_rate"
	// GateThroughput floors the phase's served blocks per second.
	GateThroughput = "throughput"
	// GateAllocBudget bounds process heap allocation per served block during
	// a phase (in-process runs only; skipped against a remote server).
	GateAllocBudget = "alloc_budget"
	// GateByteIdentity requires every kill_resume client's reassembled
	// stream to hash identically to an unfaulted reference stream.
	GateByteIdentity = "byte_identity"
	// GateResumes floors the number of mid-stream resumes actually
	// performed, so a kill_resume scenario cannot pass vacuously.
	GateResumes = "resumes"
	// GateRetryAfter floors both the number of overload rejections observed
	// and the fraction of them carrying a Retry-After header.
	GateRetryAfter = "retry_after"
	// GateScaling floors the horizontal-scaling speedup of one replica count
	// of a scaling sweep (blocks/s at replicas=R over blocks/s at replicas=1).
	GateScaling = "scaling"
)

// Spec is one declarative SLO scenario.
type Spec struct {
	// Name identifies the scenario in reports and filters (kebab-case slug,
	// unique within the directory).
	Name string `json:"name"`
	// Description says what the scenario exercises and why it exists.
	Description string `json:"description,omitempty"`
	// Tags support filtering groups of scenarios.
	Tags []string `json:"tags,omitempty"`
	// Seed drives every deterministic choice of the run: client c's session
	// seed is Seed+c, the cold-churn seed sequence, and the client backoff
	// jitter streams. Timing is the only nondeterminism left.
	Seed int64 `json:"seed"`
	// Clients is the concurrent seeded client population.
	Clients int `json:"clients"`
	// BlocksPerRequest chunks a client's streaming into resume-loop requests
	// of this many blocks; zero selects 16.
	BlocksPerRequest int `json:"blocks_per_request,omitempty"`
	// Session is the session template. Its Seed must be zero (the scenario
	// seed derives per-client seeds); Blocks must cover the largest phase.
	Session service.SessionSpec `json:"session"`
	// Server overrides the in-process server configuration. Ignored (and
	// echoed as such) when the run targets an external address.
	Server ServerSpec `json:"server,omitempty"`
	// Phases is the execution plan.
	Phases Phases `json:"phases"`
	// Fault selects and parameterizes the inject-phase fault.
	Fault Fault `json:"fault"`
	// Scaling, when set, replaces the three-phase plan with a horizontal
	// scaling sweep: for each replica count the engine starts that many
	// token-sharing in-process replicas, creates the sessions on replica 0
	// and streams the inject units round-robined across all replicas via the
	// session tokens (docs/cluster.md), recording one "replicas=N" phase per
	// point. Requires the none fault and an in-process run.
	Scaling *ScalingSpec `json:"scaling,omitempty"`
	// Gates is the release-criteria list; all must pass.
	Gates []GateSpec `json:"gates"`
}

// ScalingSpec configures the horizontal-scaling sweep.
type ScalingSpec struct {
	// Replicas lists the replica counts to measure, ascending and starting at
	// 1 (the single-replica point is the speedup baseline).
	Replicas []int `json:"replicas"`
}

// scalingPhase names the recorded phase of one sweep point.
func scalingPhase(replicas int) string {
	return fmt.Sprintf("replicas=%d", replicas)
}

// scalingPhaseKnown reports whether name is a "replicas=N" phase the
// scenario's scaling sweep will record.
func (s *Spec) scalingPhaseKnown(name string) bool {
	if s.Scaling == nil {
		return false
	}
	for _, r := range s.Scaling.Replicas {
		if name == scalingPhase(r) {
			return true
		}
	}
	return false
}

// Phases is the three-phase execution plan. Warmup results are recorded but
// typically ungated (caches fill, connections establish); inject runs the
// fault; recover shows the service back to nominal.
type Phases struct {
	Warmup  PhaseSpec `json:"warmup"`
	Inject  PhaseSpec `json:"inject"`
	Recover PhaseSpec `json:"recover"`
}

// phase returns the named phase's spec.
func (p *Phases) phase(name string) PhaseSpec {
	switch name {
	case PhaseWarmup:
		return p.Warmup
	case PhaseInject:
		return p.Inject
	case PhaseRecover:
		return p.Recover
	}
	return PhaseSpec{}
}

// PhaseSpec sizes one phase in deterministic work units per client: streamed
// blocks for streaming workloads, create/delete operations for the churn
// faults. Units, not durations, keep the workload shape (and therefore the
// summary's deterministic fields) identical across reruns.
type PhaseSpec struct {
	Units int `json:"units"`
}

// ServerSpec is the in-process server configuration a scenario may override;
// zero fields keep the service defaults. Durations are milliseconds in JSON.
type ServerSpec struct {
	MaxSessions     int `json:"max_sessions,omitempty"`
	CacheSpecs      int `json:"cache_specs,omitempty"`
	SessionTTLMs    int `json:"session_ttl_ms,omitempty"`
	CreateTimeoutMs int `json:"create_timeout_ms,omitempty"`
}

// config translates the overrides into a service configuration.
func (s ServerSpec) config() service.Config {
	return service.Config{
		MaxSessions:   s.MaxSessions,
		CacheSpecs:    s.CacheSpecs,
		SessionTTL:    time.Duration(s.SessionTTLMs) * time.Millisecond,
		CreateTimeout: time.Duration(s.CreateTimeoutMs) * time.Millisecond,
	}
}

// Fault selects and parameterizes the inject-phase fault.
type Fault struct {
	// Type is one of the Fault* constants.
	Type string `json:"type"`
	// BytesPerSec is the slow_consumer read throttle.
	BytesPerSec int `json:"bytes_per_sec,omitempty"`
	// CutBlocks are the kill_resume cut points: request i of a client's
	// inject phase is cut after CutBlocks[i mod len] complete blocks.
	CutBlocks []int `json:"cut_blocks,omitempty"`
	// CutMidBlock cuts half a frame past the cut point instead of at the
	// block boundary, so resumes must also discard partial frames.
	CutMidBlock bool `json:"cut_mid_block,omitempty"`
	// BlocksPerConn is how many blocks each conn_churn connection streams
	// between create and delete; zero selects 4.
	BlocksPerConn int `json:"blocks_per_conn,omitempty"`
	// SpecFile points spec_churn at an external pool of seed-zero session
	// templates — a JSON array, e.g. a corpus sessions.json (see
	// docs/corpus.md): cold inject creates cycle through the pool instead of
	// reseeding the scenario's single session template, so the setup-cache
	// storm spans genuinely distinct specs. The path is resolved against the
	// run's working directory (cmd/slorun runs from the repository root).
	// Only valid with the spec_churn fault.
	SpecFile string `json:"spec_file,omitempty"`
	// ExtraSessions is how many doomed creates each saturate client fires
	// during inject.
	ExtraSessions int `json:"extra_sessions,omitempty"`
}

// GateSpec is one release gate. Type selects the gate; the other fields are
// its thresholds, read as documented on the Gate* constants and in
// docs/slo.md. A zero MaxRate is meaningful: the strictest rate gate
// ("no errors at all").
type GateSpec struct {
	Type string `json:"type"`
	// Phase selects the phase the gate reads; empty selects inject.
	Phase string `json:"phase,omitempty"`
	// Metric selects the latency sampler: "block" (default) or "create".
	Metric string `json:"metric,omitempty"`
	// P50Ms, P95Ms, P99Ms bound the latency percentiles; zero skips that
	// percentile.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P95Ms float64 `json:"p95_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// MaxRate bounds error_rate / truncated_rate (fraction, 0 = none
	// tolerated).
	MaxRate float64 `json:"max_rate,omitempty"`
	// MinBlocksPerSec floors the throughput gate.
	MinBlocksPerSec float64 `json:"min_blocks_per_sec,omitempty"`
	// MaxBytesPerBlock bounds the alloc_budget gate (process heap bytes
	// allocated per served block).
	MaxBytesPerBlock float64 `json:"max_bytes_per_block,omitempty"`
	// MinResumes floors the resumes gate.
	MinResumes int `json:"min_resumes,omitempty"`
	// MinRejections floors the retry_after gate's observed rejections.
	MinRejections int `json:"min_rejections,omitempty"`
	// MinCoverage floors the retry_after gate's Retry-After coverage
	// fraction; zero selects 1 (every rejection must carry the header).
	MinCoverage float64 `json:"min_coverage,omitempty"`
	// Replicas selects the scaling-sweep point a scaling gate reads; zero
	// selects the largest measured replica count.
	Replicas int `json:"replicas,omitempty"`
	// MinSpeedup floors the scaling gate's speedup at the selected point
	// (blocks/s relative to the replicas=1 point).
	MinSpeedup float64 `json:"min_speedup,omitempty"`
}

// blocksPerRequest returns the resume-loop chunk size in effect.
func (s *Spec) blocksPerRequest() int {
	if s.BlocksPerRequest > 0 {
		return s.BlocksPerRequest
	}
	return 16
}

// blocksPerConn returns the conn_churn per-connection block count in effect.
func (f *Fault) blocksPerConn() int {
	if f.BlocksPerConn > 0 {
		return f.BlocksPerConn
	}
	return 4
}

// maxUnits returns the largest per-client phase size.
func (s *Spec) maxUnits() int {
	units := s.Phases.Warmup.Units
	if s.Phases.Inject.Units > units {
		units = s.Phases.Inject.Units
	}
	if s.Phases.Recover.Units > units {
		units = s.Phases.Recover.Units
	}
	return units
}

// streamingFault reports whether the fault keeps the steady streaming
// workload (as opposed to replacing it with a churn loop).
func (f *Fault) streamingFault() bool {
	switch f.Type {
	case FaultNone, FaultSlowConsumer, FaultSaturate, FaultKillResume:
		return true
	}
	return false
}

// Validate checks the spec for structural consistency without running
// anything.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("slolab: spec has no name: %w", ErrBadSpec)
	}
	if s.Clients <= 0 {
		return fmt.Errorf("slolab %q: clients must be > 0: %w", s.Name, ErrBadSpec)
	}
	if s.Session.Seed != 0 {
		return fmt.Errorf("slolab %q: session.seed must be 0 (the scenario seed derives per-client seeds): %w", s.Name, ErrBadSpec)
	}
	if err := s.Session.Validate(service.Limits{}); err != nil {
		return fmt.Errorf("slolab %q: session template: %w", s.Name, err)
	}
	if s.Phases.Inject.Units <= 0 {
		return fmt.Errorf("slolab %q: inject phase needs units > 0: %w", s.Name, ErrBadSpec)
	}
	if s.Phases.Warmup.Units < 0 || s.Phases.Recover.Units < 0 {
		return fmt.Errorf("slolab %q: phase units must be >= 0: %w", s.Name, ErrBadSpec)
	}
	if s.Fault.streamingFault() && s.Session.Blocks < s.maxUnits() {
		return fmt.Errorf("slolab %q: session.blocks (%d) must cover the largest phase (%d units): %w",
			s.Name, s.Session.Blocks, s.maxUnits(), ErrBadSpec)
	}
	switch s.Fault.Type {
	case FaultNone, FaultSpecChurn:
	case FaultConnChurn:
		if s.Session.Blocks < s.Fault.blocksPerConn() {
			return fmt.Errorf("slolab %q: session.blocks (%d) must cover blocks_per_conn (%d): %w",
				s.Name, s.Session.Blocks, s.Fault.blocksPerConn(), ErrBadSpec)
		}
	case FaultSlowConsumer:
		if s.Fault.BytesPerSec <= 0 {
			return fmt.Errorf("slolab %q: slow_consumer needs bytes_per_sec > 0: %w", s.Name, ErrBadSpec)
		}
	case FaultSaturate:
		if s.Fault.ExtraSessions <= 0 {
			return fmt.Errorf("slolab %q: saturate needs extra_sessions > 0: %w", s.Name, ErrBadSpec)
		}
		// The doomed creates are deterministically rejected only when the
		// primary sessions fill the table exactly.
		if s.Server.MaxSessions != s.Clients {
			return fmt.Errorf("slolab %q: saturate needs server.max_sessions == clients (got %d vs %d): %w",
				s.Name, s.Server.MaxSessions, s.Clients, ErrBadSpec)
		}
	case FaultKillResume:
		if len(s.Fault.CutBlocks) == 0 {
			return fmt.Errorf("slolab %q: kill_resume needs cut_blocks: %w", s.Name, ErrBadSpec)
		}
		for _, c := range s.Fault.CutBlocks {
			if c < 0 {
				return fmt.Errorf("slolab %q: negative cut point %d: %w", s.Name, c, ErrBadSpec)
			}
		}
	case "":
		return fmt.Errorf("slolab %q: fault has no type: %w", s.Name, ErrBadSpec)
	default:
		return fmt.Errorf("slolab %q: unknown fault type %q: %w", s.Name, s.Fault.Type, ErrBadSpec)
	}
	if s.Fault.SpecFile != "" && s.Fault.Type != FaultSpecChurn {
		return fmt.Errorf("slolab %q: spec_file is only valid with the spec_churn fault (got %q): %w",
			s.Name, s.Fault.Type, ErrBadSpec)
	}
	if s.Scaling != nil {
		if s.Fault.Type != FaultNone {
			return fmt.Errorf("slolab %q: scaling sweeps need the none fault (got %q): %w",
				s.Name, s.Fault.Type, ErrBadSpec)
		}
		if len(s.Scaling.Replicas) == 0 {
			return fmt.Errorf("slolab %q: scaling needs at least one replica count: %w", s.Name, ErrBadSpec)
		}
		if s.Scaling.Replicas[0] != 1 {
			return fmt.Errorf("slolab %q: scaling replicas must start at 1 (the speedup baseline), got %d: %w",
				s.Name, s.Scaling.Replicas[0], ErrBadSpec)
		}
		for i := 1; i < len(s.Scaling.Replicas); i++ {
			if s.Scaling.Replicas[i] <= s.Scaling.Replicas[i-1] {
				return fmt.Errorf("slolab %q: scaling replicas must be ascending, got %v: %w",
					s.Name, s.Scaling.Replicas, ErrBadSpec)
			}
		}
	}
	if len(s.Gates) == 0 {
		return fmt.Errorf("slolab %q: no gates: %w", s.Name, ErrBadSpec)
	}
	for i := range s.Gates {
		if err := s.Gates[i].validate(s); err != nil {
			return fmt.Errorf("slolab %q gate %d: %w", s.Name, i, err)
		}
	}
	return nil
}

// validate checks one gate against the scenario it belongs to.
func (g *GateSpec) validate(s *Spec) error {
	f := &s.Fault
	switch g.Phase {
	case "", PhaseWarmup, PhaseInject, PhaseRecover:
	default:
		if !s.scalingPhaseKnown(g.Phase) {
			return fmt.Errorf("unknown phase %q: %w", g.Phase, ErrBadSpec)
		}
	}
	switch g.Type {
	case GateLatency:
		if g.P50Ms <= 0 && g.P95Ms <= 0 && g.P99Ms <= 0 {
			return fmt.Errorf("latency gate checks nothing (set p50_ms/p95_ms/p99_ms): %w", ErrBadSpec)
		}
		switch g.Metric {
		case "", "block", "create":
		default:
			return fmt.Errorf("unknown latency metric %q: %w", g.Metric, ErrBadSpec)
		}
	case GateErrorRate, GateTruncatedRate:
		if g.MaxRate < 0 || g.MaxRate >= 1 {
			return fmt.Errorf("%s max_rate %g outside [0, 1): %w", g.Type, g.MaxRate, ErrBadSpec)
		}
	case GateThroughput:
		if g.MinBlocksPerSec <= 0 {
			return fmt.Errorf("throughput gate needs min_blocks_per_sec > 0: %w", ErrBadSpec)
		}
	case GateAllocBudget:
		if g.MaxBytesPerBlock <= 0 {
			return fmt.Errorf("alloc_budget gate needs max_bytes_per_block > 0: %w", ErrBadSpec)
		}
	case GateByteIdentity:
		if f.Type != FaultKillResume {
			return fmt.Errorf("byte_identity gate needs the kill_resume fault: %w", ErrBadSpec)
		}
	case GateResumes:
		if f.Type != FaultKillResume {
			return fmt.Errorf("resumes gate needs the kill_resume fault: %w", ErrBadSpec)
		}
		if g.MinResumes <= 0 {
			return fmt.Errorf("resumes gate needs min_resumes > 0: %w", ErrBadSpec)
		}
	case GateRetryAfter:
		if f.Type != FaultSaturate {
			return fmt.Errorf("retry_after gate needs the saturate fault: %w", ErrBadSpec)
		}
		if g.MinRejections <= 0 {
			return fmt.Errorf("retry_after gate needs min_rejections > 0: %w", ErrBadSpec)
		}
		if g.MinCoverage < 0 || g.MinCoverage > 1 {
			return fmt.Errorf("retry_after min_coverage %g outside [0, 1]: %w", g.MinCoverage, ErrBadSpec)
		}
	case GateScaling:
		if s.Scaling == nil {
			return fmt.Errorf("scaling gate needs a scaling sweep: %w", ErrBadSpec)
		}
		if g.MinSpeedup <= 0 {
			return fmt.Errorf("scaling gate needs min_speedup > 0: %w", ErrBadSpec)
		}
		if g.Replicas != 0 && !s.scalingPhaseKnown(scalingPhase(g.Replicas)) {
			return fmt.Errorf("scaling gate reads replicas=%d, which the sweep does not measure: %w",
				g.Replicas, ErrBadSpec)
		}
	case "":
		return fmt.Errorf("gate has no type: %w", ErrBadSpec)
	default:
		return fmt.Errorf("unknown gate type %q: %w", g.Type, ErrBadSpec)
	}
	return nil
}

// ConfigHash returns the spec's canonical content address: SHA-256 over its
// canonical JSON encoding. Two specs with the same hash describe the same
// workload, so (seed, config hash) pins a run's deterministic fields.
func (s *Spec) ConfigHash() string {
	sum := sha256.Sum256(s.canonicalJSON())
	return hex.EncodeToString(sum[:])
}

// canonicalJSON is the stable encoding hashed by ConfigHash: Go struct field
// order with HTML escaping off, the same canonicalization the service uses
// for spec echoes.
func (s *Spec) canonicalJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	// A validated spec cannot fail to encode.
	_ = enc.Encode(s)
	return bytes.TrimSpace(buf.Bytes())
}

// HasTag reports whether the spec carries the given tag.
func (s *Spec) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Parse decodes one spec from JSON. Decoding is strict
// (chanspec.DecodeStrict): an unknown field fails loudly instead of silently
// disabling a gate, and so does data after the spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := chanspec.DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return nil, fmt.Errorf("slolab: %w: %w", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadDir loads every *.json spec in dir (non-recursive), sorted by scenario
// name. Duplicate names are rejected.
func LoadDir(dir string) ([]*Spec, error) {
	return chanspec.LoadDir(dir, Parse, func(s *Spec) string { return s.Name })
}
