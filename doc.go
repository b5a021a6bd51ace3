// Package rayleigh generates arbitrary numbers of correlated Rayleigh fading
// envelopes with arbitrary (equal or unequal) powers and any desired
// covariance matrix of the underlying complex Gaussian processes, following
//
//	L. C. Tran, T. A. Wysocki, J. Seberry, A. Mertins,
//	"A Generalized Algorithm for the Generation of Correlated Rayleigh
//	Fading Envelopes in Radio Channels", IPDPS 2005.
//
// Two generation modes are provided:
//
//   - Snapshot mode (Generator): independent draws of N correlated complex
//     Gaussian samples whose moduli are the Rayleigh envelopes. The desired
//     covariance matrix does not need to be positive definite — negative
//     eigenvalues are clamped to zero (the paper's positive semi-definiteness
//     forcing) and the coloring matrix is obtained by eigendecomposition, so
//     rank-deficient and indefinite targets are handled without Cholesky.
//
//   - Real-time mode (Stream): every envelope additionally carries the
//     Jakes autocorrelation J0(2π·fm·d) imposed by Young–Beaulieu IDFT
//     Doppler generators, and the coloring step accounts for the Doppler
//     filter's variance gain (Eq. (19) of the paper) so the cross-envelope
//     covariance still matches the target. The IDFT length M, the block
//     length, must be a power of two. Blocks are read through Cursors, in
//     order (Next) or at any position (BlockAt).
//
// Desired covariance matrices can be supplied directly, or built from the
// physical correlation models of the paper: SpectralCovariance (time delay
// and frequency separation, as between OFDM subcarriers) and
// SpatialCovariance (antenna spacing in a transmit array, as in MIMO).
// Construction rejects non-finite input: a NaN or infinite covariance entry,
// input variance or fading parameter is an error, not a stream of NaN
// samples. So is a covariance target outside the scale window, whose largest
// entry magnitude max |K_ij| is below 1e-100 or above 1e100 (the all-zero
// target is accepted): beyond it the eigendecomposition's norms underflow or
// overflow. So is Suzuki shadowing above 100 dB, which could overflow the
// shadowed samples.
//
// New and NewStream are the only constructors of a generator: every caller
// in this repository — the fadingd service, the scenario gates, the corpus
// generator's acceptance probe, the benchmark report's per-method rows —
// resolves a (method, fading model) pair through them, so the gates certify
// the construction path the service runs.
//
// # Generation methods
//
// The paper's generalized algorithm is the default method, and the five
// conventional methods its introduction reviews — Salz–Winters, Ertel–Reed,
// Beaulieu–Merani, Natarajan et al., Sorooshyari–Daut — are selectable
// through Config.Method / RealTimeConfig.Method, with their documented
// constraints and defects intact: a method that cannot express a
// configuration fails construction with ErrMethodUnsupported or
// ErrMethodSetup, and methods that bias what they accept (real-forced
// covariances, ε-clamping, unit-variance whitening) do so here too, so the
// paper's comparative claims are reproducible experiments. Methods returns
// the catalog; each method's constraints, failure classes and real-time
// semantics are documented in docs/methods.md, and the scenario harness's
// "comparison" assertion runs one covariance target across several methods
// side by side (see the scenarios/compare-*.json specs).
//
// # Channel models
//
// Orthogonal to the method axis, a fading model (Config.Fading /
// RealTimeConfig.Fading plus FadingParams) reshapes the correlated Rayleigh
// field any method produces: FadingRician adds a deterministic
// line-of-sight component after coloring (K-factor, mean power preserved),
// FadingNakagamiM applies the probability-integral transform onto a
// Nakagami-m envelope (tabulated per m, error ≤ 1e-7; see docs/models.md),
// FadingSuzuki multiplies by correlated lognormal
// shadowing with its own coherence length, and FadingNonstationaryDoppler
// drives real-time blocks through a piecewise Doppler-velocity trajectory
// (each segment carries its own Jakes autocorrelation; snapshot modes
// reject it, having no time axis). Every model preserves the determinism
// contract — block k remains a pure function of (spec, seed, k), byte-
// identical across worker counts and resume points. Models returns the
// catalog; the math, spec schema and statistical gates are documented in
// docs/models.md. FadingParams, DopplerSegment and FadingModelInfo, like
// MethodInfo, are the types scenario files and fadingd specs decode into, so
// json.Marshal writes their snake_case keys ("k_factor", "segments", …).
//
// # Performance
//
// The generation hot path is a zero-allocation batched engine. Both modes
// offer streaming "Into" APIs that write into caller-supplied storage:
//
//   - Generator.SnapshotsInto fills a pre-shaped []Snapshot; snapshots come
//     in chunks of 64, each chunk's raw samples are drawn into a flat N×64
//     panel, and the whole panel is colored with one cache-blocked
//     matrix-matrix product. With reused destinations the sequential path
//     allocates nothing in steady state.
//
//   - Cursor.Next fills a reusable Block. Snapshot and Block are the
//     engine's own types, so neither call copies the caller's storage in or
//     out. Coloring acts across the N
//     envelopes and the IDFT along time, so the block colors the Doppler
//     spectra before transforming them, with the same result as Fig. 3's
//     order up to rounding. Each of the N Doppler processes draws only its
//     band: the B = 2·k_m bins where the Eq. (21) filter is non-zero (408 of
//     4096 at fm = 0.05). One matrix-matrix product colors the N×B band
//     panel, and each colored row is inverse-transformed in the Block's own
//     storage through a per-length plan with per-stage twiddle tables. Each
//     colored tap is written straight to its bit-reversed bin, so the
//     transform skips its permutation pass, and its first butterfly pass
//     visits only the groups of bins the band reaches (409 of 1,024 at
//     M = 4096, fm = 0.05), with the same output bits as the full pass. On
//     amd64 the later butterfly stages and the envelope pass run as SSE2
//     assembly that packs each complex add into one instruction; it repeats
//     the portable Go loops operation for operation, so it matches the amd64
//     Go loops bit for bit. Other architectures run those Go loops, where
//     the compiler may fuse multiply-adds (arm64 does), as it already did
//     before the assembly. With a pre-shaped Block the call performs no heap
//     allocation at all.
//
// Snapshots are colored in chunks of 64, and every chunk draws from its own
// random stream, derived deterministically from the seed and the chunk's
// position, so snapshot i is a pure function of the configuration and i.
// Snapshot and SnapshotsInto read that one sequence: SnapshotsInto(dst)
// equals len(dst) calls of Snapshot, however the draws are split into calls.
// Setting Config.Parallel fans SnapshotsInto chunks across a worker pool;
// seeded output is bit-identical for every worker count — parallelism
// changes wall-clock time, never values. Real-time generation has one block
// sequence, and block k is a pure function of the configuration and k: every
// Cursor produces the same block k, so a parallel fill gives each goroutine
// its own Cursor.
//
// Measured throughput and allocation figures live in BENCH_core.json at the
// repository root (regenerate with "go run ./cmd/benchreport"); the
// methodology and fixed seeds are documented in docs/benchmarking.md.
//
// # Concurrency
//
// Generator is not safe for concurrent use: its methods share internal
// scratch, so drive each Generator from one goroutine at a time. (The
// Parallel worker fan-out happens inside a single SnapshotsInto call and
// needs no caller-side coordination.) Stream is immutable after
// construction and hands out independent Cursors, each owning its
// generation workspace, so any number of goroutines can serve blocks of the
// same deterministic sequence, one Cursor each — the basis of the fadingd
// streaming service (see docs/service.md).
//
// # Scenarios
//
// Statistical correctness is guarded by a declarative scenario harness:
// JSON specs in scenarios/ name a correlation model, a generation mode, a
// fixed seed and a list of assertions with explicit tolerances, and the
// engine in internal/scenario evaluates every assertion as a pass/fail
// release gate ("go run ./cmd/scenariorun -all"; CI runs the full corpus on
// every pull request). The spec schema and assertion catalog are documented
// in docs/scenarios.md.
//
// # Service
//
// cmd/fadingd serves the engine over HTTP as a long-running streaming
// service: sessions are created from the same correlation-model and method
// vocabulary the scenario files use, and their block streams are
// deterministic and resumable (?from=k is byte-identical to the tail of a
// from-0 stream, on any server). Each stream handler generates the blocks it
// serves through its own Cursor, and sessions with equal specs share one
// immutable generation artifact through a content-addressed setup cache, so
// only the first create of a spec pays the O(N³) setup. Endpoints, the spec
// schema, the binary frame layout, the session table and cache design and
// capacity tuning are documented in docs/service.md; cmd/slorun drives load against it, and
// fadingbench/ is the end-to-end throughput benchmark (BENCHMARK.json).
//
// The service scales horizontally without shared state: every session
// create returns a signed, self-describing token (internal/token) carrying
// the full canonical spec, seed and blocks budget behind an HMAC, so any
// replica holding the verifying key can rebuild the exact stream from the
// token alone — the token is the source of truth and the session table is a
// cache. deploy/ holds a docker-compose recipe for such a fleet, the SLO
// lab's scaling sweep measures horizontal-scaling efficiency, and the
// corpus replayer's -token mode proves byte-identical token-only resume for
// every generated spec. The token format, key-rotation procedure and
// statelessness contract are documented in docs/cluster.md.
//
// The service's behavior under faults — slow consumers, connection churn,
// setup-cache miss storms, session-table saturation, connections killed
// mid-stream — is held to explicit service-level objectives by the SLO lab:
// scenario specs in scenarios/slo drive internal/slolab's fault-injecting
// load harness ("go run ./cmd/slorun -all"), every objective evaluates as an
// independent release gate, and cmd/benchreport -slo-compare gates fresh
// runs against the committed baseline BENCH_slo.json. The scenario schema,
// fault and gate catalogs, determinism contract and the overload/retry
// semantics they enforce are documented in docs/slo.md and docs/service.md.
//
// The spec vocabulary itself is swept by the corpus subsystem: cmd/corpusgen
// expands committed plans (plans/) into hundreds of seeded scenario specs
// plus targeted invalid ones, runs them through the scenario engine, and
// replays them byte-for-byte against the streaming service ("go run
// ./cmd/corpusgen replay -plan plans/corpus-full.json"); native fuzz targets
// seeded from the committed smoke corpus (scenarios/corpus-smoke) gate
// canonicalization idempotence and strict decoding. docs/corpus.md documents
// the plan schema, the constraint matrix and the replay contract.
//
// The invariants behind all of the above — no ambient nondeterminism in
// generation packages, canonical hashes covering every spec field,
// lock-discipline on the session table, allocation-free hot paths,
// the typed error contract — are enforced at compile time by the fadinglint
// analyzer suite ("go run ./cmd/fadinglint ./...", or via
// go vet -vettool); docs/linting.md catalogs the analyzers and their
// directive syntax.
//
// A repository-level overview (architecture map, quickstart, methods table)
// lives in README.md.
//
// fadinglint:deterministic
package rayleigh
