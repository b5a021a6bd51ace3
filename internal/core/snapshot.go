package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cmplxmat"
	"repro/internal/randx"
)

// Snapshot holds one draw of the generator: the N correlated complex
// Gaussian samples Z = (z_1, …, z_N)ᵀ and their moduli, the Rayleigh
// envelopes r_j = |z_j|.
type Snapshot struct {
	Gaussian  []complex128
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
	// guarantees L·Lᴴ equals the covariance it intends to achieve). The
	// backend registry sets it to run the conventional methods' colorings
	// through this engine. No positive semi-definiteness forcing is applied
	// to Covariance then, so Diagnostics returns nil.
	Coloring *cmplxmat.Matrix
	// Transform, when non-nil, post-processes every drawn snapshot (the
	// channel-model zoo's Rician/Nakagami/Suzuki sample transforms). Snapshot
	// i of the generator's draws, counted across single and batched draws
	// alike, is transformed at offset i.
	Transform Transform
}

// SnapshotGenerator implements steps 3–7 of the algorithm in Section 4.4 for
// the single-time-instant (snapshot) scenario: consecutive snapshots are
// mutually independent but each follows the desired covariance matrix.
type SnapshotGenerator struct {
	forced    *ForcedPSD
	coloring  *cmplxmat.Matrix // L/σ_g, applied directly to W
	sampleVar float64
	rng       *randx.RNG
	batchRoot *randx.RNG // derives one stream per batch chunk (GenerateBatchInto)
	n         int
	w         []complex128 // scratch for the raw sample vector W
	colReal   []float64    // flat copy of the coloring matrix when purely real, else nil
	panels    *snapPanels  // sequential-path workspace of GenerateBatchInto, built on first use
	transform Transform
	next      uint64 // transform offset of the next snapshot drawn
}

// snapPanels is the workspace of one batch worker: the N×chunk GEMM panels
// with the W row views hoisted for the fill loop (Z is read back through its
// flat backing array), and the RNG reseeded with each chunk's stream.
type snapPanels struct {
	w, z  *cmplxmat.Matrix
	wRows [][]complex128
	rng   *randx.RNG
}

func newSnapPanels(n int) *snapPanels {
	p := &snapPanels{
		w:   cmplxmat.New(n, batchChunkSize),
		z:   cmplxmat.New(n, batchChunkSize),
		rng: randx.New(0),
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
	rng := randx.New(cfg.Seed)
	n := cfg.Covariance.Rows()
	return &SnapshotGenerator{
		forced:    forced,
		coloring:  scaled,
		sampleVar: sampleVar,
		rng:       rng,
		batchRoot: rng.Split(),
		n:         n,
		w:         make([]complex128, n),
		colReal:   realEntries(scaled),
		transform: cfg.Transform,
	}, nil
}

// realEntries returns the flat real parts of m when every entry is purely
// real — the case for every real-valued covariance target, where the eigen
// coloring stays real — or nil when any imaginary part survives. The real
// copy lets ColorInto run a two-multiply dot product per sample instead of a
// full complex one.
func realEntries(m *cmplxmat.Matrix) []float64 {
	r, c := m.Dims()
	out := make([]float64, 0, r*c)
	for i := 0; i < r; i++ {
		for _, v := range m.RowView(i) {
			if imag(v) != 0 {
				return nil
			}
			out = append(out, real(v))
		}
	}
	return out
}

// envAbs is |z| via a plain sqrt. Envelope magnitudes are O(σ_g), far from
// the overflow/underflow range math.Hypot guards against, and sqrt is several
// times cheaper on the hot path.
func envAbs(v complex128) float64 {
	re, im := real(v), imag(v)
	return math.Sqrt(re*re + im*im)
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

// GenerateInto draws one snapshot into caller-supplied storage: gaussian
// receives the N colored complex Gaussian samples and env their moduli. Both
// slices must have length N. The raw sample vector lives in generator-owned
// scratch, so the call performs no heap allocation; the random stream and the
// produced values are identical to Generate.
func (g *SnapshotGenerator) GenerateInto(gaussian []complex128, env []float64) error {
	g.rng.FillComplexNormal(g.w, g.sampleVar)
	if err := g.ColorInto(g.w, gaussian, env); err != nil {
		return err
	}
	g.transformSnapshot(g.next, gaussian, env)
	g.next++
	return nil
}

// transformSnapshot applies the fading transform, if any, to the snapshot
// drawn at the given offset.
func (g *SnapshotGenerator) transformSnapshot(offset uint64, gaussian []complex128, env []float64) {
	if g.transform == nil {
		return
	}
	for j := range gaussian {
		g.transform.Apply(j, offset, gaussian[j:j+1], env[j:j+1])
	}
}

// ColorInto applies step 7, Z = (L/σ_g)·W, writing the colored samples into
// gaussian and their moduli into env without allocating. Unlike GenerateInto
// it consumes no generator state, so concurrent calls with distinct arguments
// are safe.
func (g *SnapshotGenerator) ColorInto(w, gaussian []complex128, env []float64) error {
	if len(w) != g.n {
		return fmt.Errorf("core: %d samples for %d envelopes: %w", len(w), g.n, ErrBadInput)
	}
	if len(gaussian) != g.n || len(env) != g.n {
		return fmt.Errorf("core: destination lengths %d/%d for %d envelopes: %w", len(gaussian), len(env), g.n, ErrBadInput)
	}
	if g.colReal != nil {
		g.colorRealInto(w, gaussian)
	} else if err := cmplxmat.MulVecInto(gaussian, g.coloring, w); err != nil {
		return err
	}
	for i, v := range gaussian {
		env[i] = envAbs(v)
	}
	return nil
}

// colorRealInto is the real-coloring matvec, blocked four output rows at a
// time: each loaded sample feeds four rows, and the eight accumulators (re/im
// per row) form independent dependency chains that keep the floating-point
// pipeline full instead of serializing on add latency.
func (g *SnapshotGenerator) colorRealInto(w, gaussian []complex128) {
	n := g.n
	col := g.colReal
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := col[i*n : (i+1)*n : (i+1)*n]
		r1 := col[(i+1)*n : (i+2)*n : (i+2)*n]
		r2 := col[(i+2)*n : (i+3)*n : (i+3)*n]
		r3 := col[(i+3)*n : (i+4)*n : (i+4)*n]
		var re0, im0, re1, im1, re2, im2, re3, im3 float64
		for k, x := range w {
			xr, xi := real(x), imag(x)
			re0 += r0[k] * xr
			im0 += r0[k] * xi
			re1 += r1[k] * xr
			im1 += r1[k] * xi
			re2 += r2[k] * xr
			im2 += r2[k] * xi
			re3 += r3[k] * xr
			im3 += r3[k] * xi
		}
		gaussian[i] = complex(re0, im0)
		gaussian[i+1] = complex(re1, im1)
		gaussian[i+2] = complex(re2, im2)
		gaussian[i+3] = complex(re3, im3)
	}
	for ; i < n; i++ {
		row := col[i*n : (i+1)*n : (i+1)*n]
		var re, im float64
		for k, x := range w {
			re += row[k] * real(x)
			im += row[k] * imag(x)
		}
		gaussian[i] = complex(re, im)
	}
}

// batchChunkSize is the number of snapshots drawn from one derived stream in
// GenerateBatchInto. Chunk c draws from the (c+1)-th split of the batch root,
// whatever worker fills it, which is what makes the output independent of the
// worker count.
const batchChunkSize = 64

// GenerateBatchInto fills dst with len(dst) independent snapshots, reusing
// the Gaussian/Envelopes storage of each entry when it already has length N
// (entries with wrong-length slices are reallocated). The batch is cut into
// chunks of batchChunkSize; each chunk draws from its own stream derived
// deterministically from the generator seed, and workers > 1 fans the chunks
// across that many goroutines. For a fixed seed the output is bit-identical
// for every worker count, including the sequential workers <= 1 path, which
// performs no heap allocation when every entry already has length N: each
// chunk reseeds one reused RNG with its split seed (the stream Split would
// derive, without allocating the child).
//
// Note the chunk streams are distinct from the stream behind Generate: a
// batched run reproduces other batched runs, not an element-wise sequence of
// Generate calls. The fading transform offsets do follow one count, so
// dst[i] is transformed as the generator's next draw plus i.
func (g *SnapshotGenerator) GenerateBatchInto(dst []Snapshot, workers int) error {
	if len(dst) == 0 {
		return fmt.Errorf("core: empty batch destination: %w", ErrBadInput)
	}
	base := g.next
	g.next += uint64(len(dst))
	chunks := (len(dst) + batchChunkSize - 1) / batchChunkSize
	if workers <= 1 || chunks == 1 {
		// Built on first use: a generator that only draws single
		// snapshots never pays for the N×chunk panels.
		if g.panels == nil {
			g.panels = newSnapPanels(g.n)
		}
		for c := 0; c < chunks; c++ {
			g.panels.rng.Reseed(g.batchRoot.SplitSeed())
			g.fillChunk(dst, c, base, g.panels)
		}
		return nil
	}
	// Seeds are derived in chunk order before any generation, so a chunk's
	// stream does not depend on which worker fills it.
	seeds := make([]int64, chunks)
	for c := range seeds {
		seeds[c] = g.batchRoot.SplitSeed()
	}
	if workers > chunks {
		workers = chunks
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(-1)
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			panels := newSnapPanels(g.n)
			for {
				c := int(next.Add(1))
				if c >= chunks {
					return
				}
				panels.rng.Reseed(seeds[c])
				g.fillChunk(dst, c, base, panels)
			}
		}()
	}
	wg.Wait()
	return nil
}

// fillChunk generates chunk c of a batch from the stream p.rng is seeded
// with: the chunk's raw samples are drawn row by row straight into the W
// panel (sample k of snapshot ci is draw k·cols+ci of the chunk stream —
// contiguous fills, no gather), the whole panel is colored with a single
// ColorBlock GEMM, and the colored columns are scattered back out with their
// envelopes. Ragged tail chunks color the full panel and simply ignore the
// unused columns, which keeps the kernel shape fixed without consuming extra
// random draws. dst[i] is transformed at offset base+i.
func (g *SnapshotGenerator) fillChunk(dst []Snapshot, c int, base uint64, p *snapPanels) {
	lo := c * batchChunkSize
	hi := lo + batchChunkSize
	if hi > len(dst) {
		hi = len(dst)
	}
	cols := hi - lo
	for _, row := range p.wRows {
		p.rng.FillComplexNormal(row[:cols], g.sampleVar)
	}
	// Dimensions are fixed at construction, so ColorBlock cannot fail.
	_ = cmplxmat.ColorBlock(g.coloring, p.w, p.z)
	zd := p.z.Data()
	for ci := 0; ci < cols; ci++ {
		i := lo + ci
		if len(dst[i].Gaussian) != g.n {
			dst[i].Gaussian = make([]complex128, g.n)
		}
		if len(dst[i].Envelopes) != g.n {
			dst[i].Envelopes = make([]float64, g.n)
		}
		gi := dst[i].Gaussian
		ei := dst[i].Envelopes
		idx := ci
		for k := 0; k < g.n; k++ {
			v := zd[idx]
			idx += batchChunkSize
			gi[k] = v
			ei[k] = envAbs(v)
		}
		g.transformSnapshot(base+uint64(i), gi, ei)
	}
}

// CovarianceFromEnvelopePowers builds the desired covariance matrix from a
// correlation-coefficient matrix of the Gaussians and desired Rayleigh
// envelope variances σr²_j: the Gaussian powers follow Eq. (11) and the
// off-diagonal covariances are ρ_{k,j}·σg_k·σg_j. This is the "start from
// envelope powers" conversion announced in step 1 of the algorithm, used by
// the public NewFromPowers entry point (which routes the result through the
// backend registry).
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
