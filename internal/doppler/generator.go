package doppler

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/randx"
)

// Generator is the single-envelope Rayleigh fading generator of Fig. 2 of
// the paper (the Young–Beaulieu IDFT model): M i.i.d. real Gaussian samples
// A[k] and B[k] are weighted by the Doppler filter coefficients F[k], the
// complex spectrum U[k] = F[k]·A[k] − i·F[k]·B[k] is inverse-transformed, and
// the resulting time sequence u[l] is a zero-mean complex Gaussian process
// with the Jakes autocorrelation J0(2π·fm·d).
//
// The Eq. (21) filter is non-zero on only 2·k_m of the M bins: the taps form
// two runs of k_m bins, [1, k_m] and [M−k_m, M−1] (F[0] and the bins between
// the runs are zero). Every path walks those runs in ascending k: BlockInto
// for a whole block, and the BandInto/SynthesizeInto pair that lets a caller
// act on the band spectrum between the draw and the IDFT.
type Generator struct {
	spec      FilterSpec
	sigmaOrig float64
	coeffs    []float64
	km        int // length of each run of taps
	outputVar float64
	plan      *dsp.Plan
}

// NewGenerator builds a Generator for the given filter spec and input
// variance σ²_orig (the variance of each real Gaussian sequence feeding the
// filter).
func NewGenerator(spec FilterSpec, sigmaOrig2 float64) (*Generator, error) {
	if sigmaOrig2 <= 0 {
		return nil, fmt.Errorf("doppler: input variance %g must be positive: %w", sigmaOrig2, ErrBadParameter)
	}
	coeffs, err := spec.Coefficients()
	if err != nil {
		return nil, err
	}
	return &Generator{
		spec:      spec,
		sigmaOrig: math.Sqrt(sigmaOrig2),
		coeffs:    coeffs,
		km:        spec.KM(),
		outputVar: OutputVariance(coeffs, spec.M, sigmaOrig2),
		plan:      dsp.NewPlan(spec.M),
	}, nil
}

// Coefficients returns the Doppler filter coefficients (shared storage; do
// not modify).
func (g *Generator) Coefficients() []float64 { return g.coeffs }

// OutputVariance returns σ²_g of Eq. (19) for this generator. This value is
// what step 6 of the combined algorithm (Section 5) must use when whitening
// the filtered samples before coloring.
func (g *Generator) OutputVariance() float64 { return g.outputVar }

// BandLen returns B = 2·k_m, the number of non-zero filter taps: the length
// of the band spectra BandInto draws and SynthesizeInto consumes.
func (g *Generator) BandLen() int { return 2 * g.km }

// runs returns the first bins of the two runs of taps, in ascending k; each
// run is k_m bins long.
func (g *Generator) runs() [2]int { return [2]int{1, g.spec.M - g.km} }

// Block generates one block of M time-domain samples u[0..M−1] using fresh
// Gaussian input from rng. Each call produces an independent block.
func (g *Generator) Block(rng *randx.RNG) []complex128 {
	out := make([]complex128, g.spec.M)
	// Length is correct by construction, so BlockInto cannot fail.
	_ = g.BlockInto(rng, out)
	return out
}

// BlockInto generates one block of M time-domain samples into dst, which must
// have length M. The frequency-domain samples are written directly into dst
// and transformed in place by the cached IDFT plan, so for power-of-two M the
// call performs no heap allocation. The Gaussian draw order is identical to
// Block, and the block equals SynthesizeInto of BandInto's draw.
//
// The generator itself is read-only after construction; concurrent BlockInto
// calls with distinct rng and dst are safe when M is a power of two (the
// plan's Bluestein scratch for other lengths is shared).
//
// fadinglint:allocfree
func (g *Generator) BlockInto(rng *randx.RNG, dst []complex128) error {
	if len(dst) != g.spec.M {
		return fmt.Errorf("doppler: BlockInto destination length %d, want %d: %w", len(dst), g.spec.M, ErrBadParameter)
	}
	clear(dst)
	for _, k0 := range g.runs() {
		for k := k0; k < k0+g.km; k++ {
			dst[k] = g.drawTap(rng, g.coeffs[k])
		}
	}
	g.plan.InverseScaled(dst)
	return nil
}

// BandInto draws the band spectrum of one block into band, which must have
// length BandLen(): band[i] = U[k] at the i-th tap k, in ascending k, from
// the same Gaussian draws in the same order as BlockInto. It performs no heap
// allocation.
//
// fadinglint:allocfree
func (g *Generator) BandInto(rng *randx.RNG, band []complex128) error {
	if len(band) != g.BandLen() {
		return fmt.Errorf("doppler: BandInto destination length %d, want %d: %w", len(band), g.BandLen(), ErrBadParameter)
	}
	for r, k0 := range g.runs() {
		for i, c := range g.coeffs[k0 : k0+g.km] {
			band[r*g.km+i] = g.drawTap(rng, c)
		}
	}
	return nil
}

// SynthesizeInto scatters a band spectrum (BandLen() values, one per tap in
// ascending k, as BandInto lays them out) into the M bins of dst, zeroes the
// others, and inverse-transforms dst in place with the 1/M normalization of
// BlockInto. The 1/M factor is applied to the B taps before the transform
// instead of to the M outputs after it; for power-of-two M the factor is a
// power of two, so the two orders round identically. For power-of-two M
// each tap is written straight to its bit-reversed bin, which is where the
// transform's permutation pass would move it, so the transform skips that
// pass over all M bins. Every tap lies within k_m of bin 0 (mod M), so k_m
// is the half-width the transform gets: its first pass visits only the
// groups of bins that band reaches (409 of 1,024 at M = 4096, fm = 0.05)
// and leaves the cleared rest at +0, bit for bit what the full pass would
// write; its later stages run dsp's SSE2 kernel on amd64, with the bits of
// dsp's Go loops there, and those Go loops elsewhere. IDFT linearity is
// what lets a caller combine band spectra first: synthesizing Σ a_i·band_i
// yields Σ a_i·(synthesis of band_i) up to rounding. Concurrency and
// allocation follow BlockInto.
//
// fadinglint:allocfree
func (g *Generator) SynthesizeInto(band, dst []complex128) error {
	if len(band) != g.BandLen() || len(dst) != g.spec.M {
		return fmt.Errorf("doppler: SynthesizeInto lengths %d/%d, want %d/%d: %w",
			len(band), len(dst), g.BandLen(), g.spec.M, ErrBadParameter)
	}
	clear(dst)
	inv := 1 / float64(g.spec.M)
	pow2 := g.spec.M&(g.spec.M-1) == 0
	for r, k0 := range g.runs() {
		for i, v := range band[r*g.km : (r+1)*g.km] {
			bin := k0 + i
			if pow2 {
				bin = g.plan.BitReversed(bin)
			}
			dst[bin] = complex(real(v)*inv, imag(v)*inv)
		}
	}
	if pow2 {
		g.plan.InverseBitReversed(dst, g.km)
	} else {
		g.plan.Inverse(dst)
	}
	return nil
}

// drawTap draws U[k] = F[k]·A[k] − i·F[k]·B[k] for a tap with coefficient c.
//
// fadinglint:allocfree
func (g *Generator) drawTap(rng *randx.RNG, c float64) complex128 {
	a := rng.Normal(0, g.sigmaOrig)
	b := rng.Normal(0, g.sigmaOrig)
	return complex(c*a, -c*b)
}
