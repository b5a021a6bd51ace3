package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cmplxmat"
	"repro/internal/dsp"
	"repro/internal/fading"
	"repro/internal/randx"
)

// Snapshot holds one draw of the generator: the N correlated complex
// Gaussian samples Z = (z_1, …, z_N)ᵀ and their moduli, the Rayleigh
// envelopes r_j = |z_j|. It is also the public API's rayleigh.Snapshot.
type Snapshot struct {
	// Gaussian holds the correlated zero-mean complex Gaussian samples z_j.
	Gaussian []complex128
	// Envelopes holds the Rayleigh envelopes r_j = |z_j|.
	Envelopes []float64
}

// SnapshotConfig configures a SnapshotGenerator.
type SnapshotConfig struct {
	// Covariance is the desired covariance matrix K of the complex Gaussian
	// processes (Eq. (12)–(13)). It must be Hermitian; it does not need to be
	// positive (semi-)definite.
	Covariance *cmplxmat.Matrix
	// SampleVariance is the "arbitrary, equal variance σ²_g" of the i.i.d.
	// complex Gaussian samples generated in step 6. Any positive value yields
	// the same output statistics because step 7 divides by σ_g; it is
	// configurable to mirror the paper exactly and to drive the real-time
	// combination. Zero selects 1.
	SampleVariance float64
	// Seed seeds the internal random stream.
	Seed int64
	// Coloring overrides the coloring matrix: when non-nil, this N×N matrix L
	// is used in step 7 instead of the paper's eigen construction (the caller
	// guarantees L·Lᴴ equals the covariance it intends to achieve).
	// rayleigh.New sets it to run the conventional methods' colorings
	// through this engine. No positive semi-definiteness forcing is applied
	// to Covariance then, so Diagnostics returns nil.
	Coloring *cmplxmat.Matrix
	// Transform, when non-nil, post-processes every drawn snapshot (the
	// channel-model zoo's Rician/Nakagami/Suzuki sample transforms). Snapshot
	// i of the generator's draws, counted across single and batched draws
	// alike, is transformed at offset i.
	Transform fading.Transform
}

// SnapshotGenerator implements steps 3–7 of the algorithm in Section 4.4 for
// the single-time-instant (snapshot) scenario: consecutive snapshots are
// mutually independent but each follows the desired covariance matrix.
//
// Snapshot i of a seeded generator is a pure function of the seed and i: it
// is column i mod batchChunkSize of chunk ⌊i/batchChunkSize⌋, an
// N×batchChunkSize panel of raw samples W drawn from the chunk's own stream
// and colored by one ColorBlock GEMM. Single draws (Generate, GenerateInto)
// and batches (GenerateBatchInto, at any split and any worker count) read
// that one sequence.
type SnapshotGenerator struct {
	forced    *ForcedPSD
	coloring  *cmplxmat.Matrix // L/σ_g, applied directly to W
	sampleVar float64
	root      *randx.RNG // frozen split root: chunk c draws from root.SplitSeedAt(c)
	n         int
	panels    *snapPanels // workspace of single draws and sequential batches, built on first use
	// workerPanels holds one workspace per parallel batch worker, grown to
	// the largest worker count a call has used.
	workerPanels []*snapPanels
	transform    fading.Transform
	next         uint64 // position of the next snapshot drawn
}

// snapPanels holds one colored chunk: the N×chunk GEMM panels with the W row
// views hoisted for the fill loop (Z is read back through its flat backing
// array), the RNG reseeded with each chunk's stream, and which chunk Z holds.
type snapPanels struct {
	w, z  *cmplxmat.Matrix
	wRows [][]complex128
	rng   *randx.RNG
	chunk uint64
}

func newSnapPanels(n int) *snapPanels {
	p := &snapPanels{
		w:     cmplxmat.New(n, batchChunkSize),
		z:     cmplxmat.New(n, batchChunkSize),
		rng:   randx.New(0),
		chunk: math.MaxUint64, // none: chunk indices stay below 2^58
	}
	p.wRows = make([][]complex128, n)
	for k := 0; k < n; k++ {
		p.wRows[k] = p.w.RowView(k)
	}
	return p
}

// NewSnapshotGenerator validates the configuration, forces positive
// semi-definiteness of the covariance matrix and precomputes the coloring
// matrix.
func NewSnapshotGenerator(cfg SnapshotConfig) (*SnapshotGenerator, error) {
	if cfg.Covariance == nil {
		return nil, fmt.Errorf("core: nil covariance matrix: %w", ErrBadInput)
	}
	sampleVar := cfg.SampleVariance
	if sampleVar == 0 {
		sampleVar = 1
	}
	if sampleVar < 0 {
		return nil, fmt.Errorf("core: negative sample variance %g: %w", sampleVar, ErrBadInput)
	}
	l, forced, err := coloringFor(cfg.Covariance, cfg.Coloring)
	if err != nil {
		return nil, err
	}
	scaled, err := ScaleColoring(l, sampleVar)
	if err != nil {
		return nil, err
	}
	return &SnapshotGenerator{
		forced:    forced,
		coloring:  scaled,
		sampleVar: sampleVar,
		root:      randx.New(cfg.Seed).Split(),
		n:         cfg.Covariance.Rows(),
		transform: cfg.Transform,
	}, nil
}

// N returns the number of envelopes generated per snapshot.
func (g *SnapshotGenerator) N() int { return g.n }

// Diagnostics returns the positive semi-definiteness forcing record for the
// covariance matrix, including the Frobenius approximation error when
// clamping was necessary, or nil when SnapshotConfig.Coloring replaced the
// forced eigen construction.
func (g *SnapshotGenerator) Diagnostics() *ForcedPSD { return g.forced }

// Generate produces one snapshot: steps 6 and 7 of the algorithm.
func (g *SnapshotGenerator) Generate() Snapshot {
	s := Snapshot{Gaussian: make([]complex128, g.n), Envelopes: make([]float64, g.n)}
	// GenerateInto cannot fail: the destination lengths match by construction.
	_ = g.GenerateInto(s.Gaussian, s.Envelopes)
	return s
}

// GenerateInto draws the next snapshot into caller-supplied storage:
// gaussian receives the N colored complex Gaussian samples and env their
// moduli. Both slices must have length N. The draw reads its chunk through
// the generator's own panels, built on the first draw, so consecutive draws
// color each chunk once and the call performs no heap allocation after the
// first; the values are identical to Generate and to GenerateBatchInto at
// the same position.
func (g *SnapshotGenerator) GenerateInto(gaussian []complex128, env []float64) error {
	if len(gaussian) != g.n || len(env) != g.n {
		return fmt.Errorf("core: destination lengths %d/%d for %d envelopes: %w", len(gaussian), len(env), g.n, ErrBadInput)
	}
	if g.panels == nil {
		g.panels = newSnapPanels(g.n)
	}
	g.read(g.next, g.panels, gaussian, env)
	g.next++
	return nil
}

// batchChunkSize is the number of snapshots colored together: chunk c holds
// snapshots [64c, 64c+64) and draws its N×64 raw panel from the (c+1)-th
// split of the generator's root, whatever call or worker reads it. It is
// part of the value contract — a seeded snapshot's value depends on it — so
// changing it changes every seeded snapshot.
const batchChunkSize = 64

// GenerateBatchInto fills dst with the next len(dst) snapshots, reusing the
// Gaussian/Envelopes storage of each entry when it already has length N
// (entries with wrong-length slices are reallocated). dst[i] is the snapshot
// at the generator's next position plus i, bit-identical to the same
// position read by single draws or by batches split any other way. workers
// > 1 fans the chunks the range touches across that many goroutines, each
// with panels of its own that the generator keeps for later calls; a
// partial first or last chunk is colored whole and only its in-range columns
// are copied. The sequential workers <= 1 path reads through the
// generator's own panels and performs no heap allocation when every entry
// already has length N.
func (g *SnapshotGenerator) GenerateBatchInto(dst []Snapshot, workers int) error {
	if len(dst) == 0 {
		return fmt.Errorf("core: empty batch destination: %w", ErrBadInput)
	}
	for i := range dst {
		if len(dst[i].Gaussian) != g.n {
			dst[i].Gaussian = make([]complex128, g.n)
		}
		if len(dst[i].Envelopes) != g.n {
			dst[i].Envelopes = make([]float64, g.n)
		}
	}
	first := g.next
	end := first + uint64(len(dst))
	g.next = end
	c0 := first / batchChunkSize
	chunks := int((end-1)/batchChunkSize - c0 + 1)
	if workers <= 1 || chunks == 1 {
		if g.panels == nil {
			g.panels = newSnapPanels(g.n)
		}
		for i := range dst {
			g.read(first+uint64(i), g.panels, dst[i].Gaussian, dst[i].Envelopes)
		}
		return nil
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(-1)
	workers = min(workers, chunks)
	for len(g.workerPanels) < workers {
		g.workerPanels = append(g.workerPanels, newSnapPanels(g.n))
	}
	wg.Add(workers)
	for _, p := range g.workerPanels[:workers] {
		go func() {
			defer wg.Done()
			for {
				c := next.Add(1)
				if c >= int64(chunks) {
					return
				}
				lo := (c0 + uint64(c)) * batchChunkSize
				for i := max(lo, first); i < min(lo+batchChunkSize, end); i++ {
					d := &dst[i-first]
					g.read(i, p, d.Gaussian, d.Envelopes)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// read copies snapshot i out of its chunk into gaussian and env and applies
// the fading transform at offset i. When p holds another chunk it first
// draws i's chunk: the raw samples go row by row straight into the W panel
// (sample k of column ci is draw k·batchChunkSize+ci of the chunk stream —
// contiguous fills, no gather) and one ColorBlock GEMM colors the panel.
// Concurrent calls are safe with distinct panels and destinations.
//
// fadinglint:allocfree
func (g *SnapshotGenerator) read(i uint64, p *snapPanels, gaussian []complex128, env []float64) {
	if c := i / batchChunkSize; p.chunk != c {
		p.rng.Reseed(g.root.SplitSeedAt(c))
		for _, row := range p.wRows {
			p.rng.FillComplexNormal(row, g.sampleVar)
		}
		// Dimensions are fixed at construction, so ColorBlock cannot fail.
		_ = cmplxmat.ColorBlock(g.coloring, p.w, p.z)
		p.chunk = c
	}
	zd := p.z.Data()
	idx := int(i % batchChunkSize)
	for k := range gaussian {
		gaussian[k] = zd[idx]
		idx += batchChunkSize
	}
	dsp.Envelope(env, gaussian)
	if g.transform != nil {
		for j := range gaussian {
			g.transform.Apply(j, i, gaussian[j:j+1], env[j:j+1])
		}
	}
}

// CovarianceFromEnvelopePowers builds the desired covariance matrix from a
// correlation-coefficient matrix of the Gaussians and desired Rayleigh
// envelope variances σr²_j: the Gaussian powers follow Eq. (11) and the
// off-diagonal covariances are ρ_{k,j}·σg_k·σg_j. This is the "start from
// envelope powers" conversion announced in step 1 of the algorithm, behind
// the public CovarianceFromEnvelopePowers.
func CovarianceFromEnvelopePowers(correlation *cmplxmat.Matrix, envelopeVariances []float64) (*cmplxmat.Matrix, error) {
	if correlation == nil {
		return nil, fmt.Errorf("core: nil correlation matrix: %w", ErrBadInput)
	}
	n := correlation.Rows()
	if !correlation.IsSquare() || n != len(envelopeVariances) {
		return nil, fmt.Errorf("core: correlation matrix %dx%d with %d envelope variances: %w",
			correlation.Rows(), correlation.Cols(), len(envelopeVariances), ErrBadInput)
	}
	gaussPowers, err := EnvelopePowersToGaussianPowers(envelopeVariances)
	if err != nil {
		return nil, err
	}
	return CovarianceFromCorrelation(correlation, gaussPowers)
}

// CovarianceFromCorrelation builds K from a correlation-coefficient matrix ρ
// and per-process Gaussian powers: K_{k,j} = ρ_{k,j}·sqrt(σg²_k·σg²_j), with
// the diagonal forced to the powers themselves.
func CovarianceFromCorrelation(correlation *cmplxmat.Matrix, gaussianPowers []float64) (*cmplxmat.Matrix, error) {
	n := correlation.Rows()
	if !correlation.IsSquare() || n != len(gaussianPowers) {
		return nil, fmt.Errorf("core: correlation matrix %dx%d with %d powers: %w",
			correlation.Rows(), correlation.Cols(), len(gaussianPowers), ErrBadInput)
	}
	k := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		if gaussianPowers[i] <= 0 {
			return nil, fmt.Errorf("core: Gaussian power %d is %g, must be positive: %w", i, gaussianPowers[i], ErrBadInput)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				k.Set(i, i, complex(gaussianPowers[i], 0))
				continue
			}
			scale := complex(sqrtProduct(gaussianPowers[i], gaussianPowers[j]), 0)
			k.Set(i, j, correlation.At(i, j)*scale)
		}
	}
	k.Hermitize()
	return k, nil
}

func sqrtProduct(a, b float64) float64 {
	return math.Sqrt(a) * math.Sqrt(b)
}
