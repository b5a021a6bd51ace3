package core

import (
	"fmt"
	"slices"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/doppler"
	"repro/internal/dsp"
	"repro/internal/fading"
	"repro/internal/randx"
)

// RealTimeConfig configures the real-time correlated generator of Section 5
// (Fig. 3): N Young–Beaulieu Doppler generators feed the coloring step, so
// every envelope carries the Jakes autocorrelation J0(2π·fm·d) while the
// cross-envelope covariance matches the desired matrix at every instant.
type RealTimeConfig struct {
	// Covariance is the desired covariance matrix K of the complex Gaussian
	// processes.
	Covariance *cmplxmat.Matrix
	// Filter is the Doppler filter specification shared by the N envelopes
	// (IDFT length M and normalized Doppler fm). With DopplerSegments set,
	// only M is read and NormalizedDoppler must be zero (each segment brings
	// its own).
	Filter doppler.FilterSpec
	// InputVariance is σ²_orig, the variance of the real Gaussian sequences
	// feeding each Doppler filter. Zero selects the paper's 1/2; any other
	// value must be finite and positive.
	InputVariance float64
	// Seed seeds the random streams (one derived stream per block and
	// envelope).
	Seed int64
	// AssumeUnitVariance, when true, skips the Eq. (19) correction and feeds
	// the coloring step with σ²_g = 1 regardless of the true Doppler filter
	// gain. This reproduces the defect of the method in [6] that Section 5
	// identifies, so the harness can quantify the resulting covariance bias
	// (rayleigh.NewStream sets it for the sorooshyari_daut method only).
	AssumeUnitVariance bool
	// Coloring overrides the coloring matrix applied to the Doppler panel
	// (see SnapshotConfig.Coloring): rayleigh.NewStream threads the
	// conventional methods' colorings through here, so baseline-backed
	// real-time streams reuse the whole block engine, including random
	// access and worker-count invariance.
	Coloring *cmplxmat.Matrix
	// Transform, when non-nil, post-processes every generated row (the
	// channel-model zoo's Rician/Nakagami/Suzuki sample transforms). It is
	// applied inside the block fill, so transformed block k is still a pure
	// function of the configuration and k; the parallel block workers share
	// it.
	Transform fading.Transform
	// DopplerSegments, when non-empty, replaces the single Doppler design
	// with a piecewise trajectory: block k is generated with the Doppler
	// panel of the segment covering k (the last segment persists past the
	// trajectory end). Only the Doppler generator and the σ_g scaling
	// change per segment; the per-block random streams are unchanged, so
	// GenerateBlockAt stays O(1) and byte-identical across resume points
	// and worker counts.
	DopplerSegments []chanspec.DopplerSegment
}

// Block is one real-time generation block of M consecutive time samples for
// each of the N envelopes. It is also the public API's rayleigh.Block.
type Block struct {
	// Gaussian[j][l] is z_j at discrete time l.
	Gaussian [][]complex128
	// Envelopes[j][l] is r_j = |z_j| at discrete time l.
	Envelopes [][]float64
}

// NewBlock returns a Block with n×m storage carved out of two flat backing
// arrays (one allocation per field instead of one per row). Blocks shaped
// this way are what GenerateBlockAt reuses allocation-free.
func NewBlock(n, m int) *Block {
	gflat := make([]complex128, n*m)
	eflat := make([]float64, n*m)
	b := &Block{
		Gaussian:  make([][]complex128, n),
		Envelopes: make([][]float64, n),
	}
	for j := 0; j < n; j++ {
		b.Gaussian[j] = gflat[j*m : (j+1)*m : (j+1)*m]
		b.Envelopes[j] = eflat[j*m : (j+1)*m : (j+1)*m]
	}
	return b
}

// ensureShape makes the block hold n rows of m samples, reusing existing row
// storage when the lengths already match.
func (b *Block) ensureShape(n, m int) {
	if len(b.Gaussian) != n || len(b.Envelopes) != n {
		nb := NewBlock(n, m)
		b.Gaussian, b.Envelopes = nb.Gaussian, nb.Envelopes
		return
	}
	for j := 0; j < n; j++ {
		if len(b.Gaussian[j]) != m {
			b.Gaussian[j] = make([]complex128, m)
		}
		if len(b.Envelopes[j]) != m {
			b.Envelopes[j] = make([]float64, m)
		}
	}
}

// rtSegment is one leg of the (possibly trivial) Doppler trajectory: its
// Doppler generator and the coloring matrix rescaled to its Eq. (19) output
// variance. A stationary generator has exactly one segment.
type rtSegment struct {
	spec     doppler.FilterSpec
	gen      *doppler.Generator // shared by the N envelopes, like the filter
	coloring *cmplxmat.Matrix   // L/σ_g of this segment
	sigmaG2  float64
}

// BlockScratch is the workspace of one block-generating goroutine: the input
// and output panels of the coloring GEMM and the two RNGs reseeded for every
// block (the block's root and the row stream split from it). The panels hold
// band spectra, not time samples: two N×B_max backing arrays, B_max the
// widest segment band, which every segment views at its own N×B (so they
// never grow with the segment count). The segments' Doppler generators are
// read-only after construction and shared by every scratch.
type BlockScratch struct {
	w, z []*cmplxmat.Matrix // per segment, N×B views of the shared panels
	root *randx.RNG
	row  *randx.RNG
}

// RealTimeGenerator implements the combined algorithm of Section 5. Block k
// is a pure function of the configuration and k: its N Doppler rows draw
// their band spectra from streams derived from the seed and k alone. Fig. 3
// colors the N IDFT outputs at every time instant; coloring acts across
// envelopes and the IDFT along time, so the generator colors the N×B band
// panel with one cache-blocked matrix-matrix product first and then
// inverse-transforms each colored row. The block is the same up to rounding,
// and the GEMM runs over the B = 2·k_m non-zero Doppler bins instead of all
// M time samples.
//
// A RealTimeGenerator is immutable after construction: it keeps no position
// and no workspace. Share one generator across goroutines and give each
// goroutine its own BlockScratch.
type RealTimeGenerator struct {
	forced   *ForcedPSD
	segments []rtSegment
	// trajectory is the generator's copy of RealTimeConfig.DopplerSegments
	// (empty when stationary): block k runs segment
	// chanspec.SegmentIndexAt(trajectory, k).
	trajectory []chanspec.DopplerSegment
	// blockRoot is the frozen root of the per-block streams: block k draws
	// from blockRoot.SplitAt(k). It is never advanced, so GenerateBlockAt
	// stays a pure function of the seed and the block index.
	blockRoot *randx.RNG
	n         int
	m         int
	transform fading.Transform
}

// NewRealTimeGenerator validates the configuration and builds the Doppler
// generators plus the coloring pipeline. The critical difference from the
// method in [6] is step 6: the sample variance handed to the coloring step is
// the Doppler-filter output variance of Eq. (19), not an assumed constant.
func NewRealTimeGenerator(cfg RealTimeConfig) (*RealTimeGenerator, error) {
	if cfg.Covariance == nil {
		return nil, fmt.Errorf("core: nil covariance matrix: %w", ErrBadInput)
	}
	n := cfg.Covariance.Rows()
	// doppler.NewGenerator rejects a σ²_orig that is not finite and positive.
	inputVar := cfg.InputVariance
	if inputVar == 0 {
		inputVar = 0.5
	}

	// Resolve the Doppler trajectory: one stationary segment from Filter, or
	// one segment per DopplerSegments entry (Filter then contributes only M).
	specs := []doppler.FilterSpec{cfg.Filter}
	if len(cfg.DopplerSegments) > 0 {
		if cfg.Filter.NormalizedDoppler != 0 {
			return nil, fmt.Errorf("core: both Filter.NormalizedDoppler and DopplerSegments set: %w", ErrBadInput)
		}
		specs = specs[:0]
		for i, seg := range cfg.DopplerSegments {
			if seg.Blocks <= 0 {
				return nil, fmt.Errorf("core: Doppler segment %d needs blocks > 0, got %d: %w", i, seg.Blocks, ErrBadInput)
			}
			specs = append(specs, doppler.FilterSpec{M: cfg.Filter.M, NormalizedDoppler: seg.NormalizedDoppler})
		}
	}

	// One Doppler generator per segment: the N envelopes share its filter and
	// input variance (Fig. 3), so they share the generator too, and step 6
	// takes σ²_g from Eq. (19) once per segment.
	segments := make([]rtSegment, len(specs))
	for si, spec := range specs {
		dg, err := doppler.NewGenerator(spec, inputVar)
		if err != nil {
			// fadingd returns this text in its 400 body; keep it stable.
			if si == 0 {
				return nil, fmt.Errorf("core: Doppler generator 0: %w", err)
			}
			return nil, fmt.Errorf("core: Doppler segment %d generator 0: %w", si, err)
		}
		sigmaG2 := dg.OutputVariance()
		if cfg.AssumeUnitVariance {
			sigmaG2 = 1
		}
		segments[si] = rtSegment{spec: spec, gen: dg, sigmaG2: sigmaG2}
	}

	l, forced, err := coloringFor(cfg.Covariance, cfg.Coloring)
	if err != nil {
		return nil, err
	}
	for si := range segments {
		if segments[si].coloring, err = ScaleColoring(l, segments[si].sigmaG2); err != nil {
			return nil, err
		}
	}

	return &RealTimeGenerator{
		forced:     forced,
		segments:   segments,
		trajectory: slices.Clone(cfg.DopplerSegments),
		// Block streams hang off the seed root's (n+1)-th split; moving them
		// would change every block a seed produces.
		blockRoot: randx.New(cfg.Seed).SplitAt(uint64(n)),
		n:         n,
		m:         cfg.Filter.M,
		transform: cfg.Transform,
	}, nil
}

// N returns the number of envelopes.
func (g *RealTimeGenerator) N() int { return g.n }

// BlockLength returns the number of time samples per block (the IDFT length).
func (g *RealTimeGenerator) BlockLength() int { return g.m }

// SampleVariance returns the σ²_g used in the whitening step (of the first
// trajectory segment when the Doppler is nonstationary).
func (g *RealTimeGenerator) SampleVariance() float64 { return g.segments[0].sigmaG2 }

// Diagnostics returns the positive semi-definiteness forcing record, or nil
// when RealTimeConfig.Coloring replaced the forced eigen construction.
func (g *RealTimeGenerator) Diagnostics() *ForcedPSD { return g.forced }

// TheoreticalAutocorrelation returns the designed per-envelope normalized
// autocorrelation at the given lag, J0(2π·fm·d), for the first trajectory
// segment. TheoreticalAutocorrelationAt resolves the segment by block index.
func (g *RealTimeGenerator) TheoreticalAutocorrelation(lag int) float64 {
	return doppler.TheoreticalAutocorrelation(g.segments[0].spec.NormalizedDoppler, lag)
}

// TheoreticalAutocorrelationAt returns the designed normalized
// autocorrelation at the given lag for the Doppler segment covering the
// given block index.
func (g *RealTimeGenerator) TheoreticalAutocorrelationAt(block uint64, lag int) float64 {
	return doppler.TheoreticalAutocorrelation(g.segments[chanspec.SegmentIndexAt(g.trajectory, block)].spec.NormalizedDoppler, lag)
}

// NewBlockScratch builds a workspace for GenerateBlockAt.
func (g *RealTimeGenerator) NewBlockScratch() *BlockScratch {
	widest := 0
	for si := range g.segments {
		widest = max(widest, g.segments[si].gen.BandLen())
	}
	wd := make([]complex128, g.n*widest)
	zd := make([]complex128, g.n*widest)
	s := &BlockScratch{
		w:    make([]*cmplxmat.Matrix, len(g.segments)),
		z:    make([]*cmplxmat.Matrix, len(g.segments)),
		root: randx.New(0),
		row:  randx.New(0),
	}
	for si := range g.segments {
		b := g.segments[si].gen.BandLen()
		s.w[si] = cmplxmat.View(g.n, b, wd)
		s.z[si] = cmplxmat.View(g.n, b, zd)
	}
	return s
}

// GenerateBlockAt generates block index into b using the caller-owned
// scratch s: the same values every other path of this generator produces at
// that position, regardless of call order, batch sizes or worker counts.
// Random access is what makes streams resumable — serving block k to a
// resuming client is bit-identical to having streamed from 0. The block's
// Doppler segment and fading-transform offset are derived from index, so the
// contract holds for every model of the zoo, including nonstationary
// trajectories.
//
// The call reads only construction-time generator state, so concurrent
// GenerateBlockAt calls with distinct b and s are safe. With a pre-shaped b
// it performs no heap allocation: the scratch's RNGs are reseeded in place
// from the O(1) split derivation.
//
// fadinglint:allocfree
func (g *RealTimeGenerator) GenerateBlockAt(index uint64, b *Block, s *BlockScratch) error {
	if b == nil {
		return fmt.Errorf("core: nil destination block: %w", ErrBadInput)
	}
	if s == nil {
		return fmt.Errorf("core: nil block scratch: %w", ErrBadInput)
	}
	b.ensureShape(g.n, g.m)
	g.fillBlock(index, b, s)
	return nil
}

// fillBlock is the block hot path. Row j's Doppler process draws its band
// spectrum (the filter's non-zero taps in ascending k) from the j-th split of
// the block's root into row j of the N×B panel w, and one ColorBlock GEMM
// colors w into z with the segment's L/σ_g. Each colored row is then
// scattered into the block's own Gaussian row and inverse-transformed there
// in place (dsp's SSE2 stages on amd64), and dsp.Envelope derives the row's
// envelopes in one pass. With a fading transform configured, the transform
// rewrites samples and envelopes in place instead; index gives it its global
// sample offset.
//
// fadinglint:allocfree
func (g *RealTimeGenerator) fillBlock(index uint64, b *Block, s *BlockScratch) {
	si := chanspec.SegmentIndexAt(g.trajectory, index)
	seg := &g.segments[si]
	dg := seg.gen
	w, z := s.w[si], s.z[si]
	s.root.Reseed(g.blockRoot.SplitSeedAt(index))
	// Panel, band and row lengths are fixed at construction, so neither the
	// band calls nor ColorBlock can fail.
	for j := 0; j < g.n; j++ {
		s.row.Reseed(s.root.SplitSeed())
		_ = dg.BandInto(s.row, w.RowView(j))
	}
	_ = cmplxmat.ColorBlock(seg.coloring, w, z)
	offset := index * uint64(g.m)
	for j := 0; j < g.n; j++ {
		gj := b.Gaussian[j]
		ej := b.Envelopes[j]
		_ = dg.SynthesizeInto(z.RowView(j), gj)
		if g.transform != nil {
			g.transform.Apply(j, offset, gj, ej)
			continue
		}
		dsp.Envelope(ej, gj)
	}
}
