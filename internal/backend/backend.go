// Package backend is the generation-method registry. It resolves the chanspec
// method vocabulary ("generalized", "salz_winters", "ertel_reed",
// "beaulieu_merani", "natarajan", "sorooshyari_daut") into the one thing the
// methods differ in, a coloring matrix (Coloring), and runs every method's
// snapshots and real-time blocks through the core engine with it. The
// scenario harness, the public API and the fadingd service all resolve spec
// method names through this package, so "which method, at what cost, with
// which failure modes" is a single spec-file question. Each method's
// constraints and typed failure classes are catalogued in docs/methods.md.
package backend

import (
	"fmt"
	"math/cmplx"

	"repro/internal/baseline"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/fading"
)

// New resolves a (method, fading model) pair against a covariance target: a
// snapshot generator that colors with the method's coloring matrix and
// applies the fading model's sample transform to every draw (see
// internal/fading; nil params are valid only for Rayleigh). The transform
// offset is the snapshot's position in the generator's one sequence, so
// batched and single-draw paths shadow identically. Construction surfaces
// each method's documented failure classes: baseline.ErrUnsupported for
// configurations outside a method's vocabulary (unequal powers, N ≠ 2,
// complex correlation), baseline.ErrSetupFailed for numerical rejections
// (non-PSD targets under Cholesky or Salz–Winters), chanspec.ErrBadSpec for
// names outside the vocabulary. The nonstationary-Doppler model needs a time
// axis and is rejected here (chanspec.ErrBadSpec): it is a real-time block
// mode concern.
// Only the generalized method forces positive semi-definiteness, so only its
// generator reports Diagnostics.
func New(method, fading string, params *chanspec.FadingParams, k *cmplxmat.Matrix, seed int64) (*core.SnapshotGenerator, error) {
	if chanspec.NormalizeFading(fading) == chanspec.FadingNonstationaryDoppler {
		return nil, fmt.Errorf("backend: fading %q needs a real-time block mode (snapshots have no time axis): %w",
			fading, chanspec.ErrBadSpec)
	}
	coloring, _, err := Coloring(method, k)
	if err != nil {
		return nil, err
	}
	tr, err := fadingTransform(fading, params, k, seed)
	if err != nil {
		return nil, err
	}
	return core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: k, Seed: seed, Coloring: coloring, Transform: tr})
}

// RealTimeConfig resolves the method- and model-dependent part of a
// real-time configuration: the method's coloring and unit-variance
// assumption, the fading model's sample transform and, for the
// nonstationary-Doppler model, its trajectory. The caller sets Filter and
// InputVariance.
func RealTimeConfig(method, fading string, params *chanspec.FadingParams, k *cmplxmat.Matrix, seed int64) (core.RealTimeConfig, error) {
	coloring, assumeUnit, err := Coloring(method, k)
	if err != nil {
		return core.RealTimeConfig{}, err
	}
	tr, err := fadingTransform(fading, params, k, seed)
	if err != nil {
		return core.RealTimeConfig{}, err
	}
	var segments []chanspec.DopplerSegment
	if chanspec.NormalizeFading(fading) == chanspec.FadingNonstationaryDoppler {
		// fadingTransform validated the model, so params carries the
		// trajectory.
		segments = params.Segments
	}
	return core.RealTimeConfig{
		Covariance:         k,
		Seed:               seed,
		AssumeUnitVariance: assumeUnit,
		Coloring:           coloring,
		Transform:          tr,
		DopplerSegments:    segments,
	}, nil
}

// fadingTransform builds the fading model's sample transform for a
// covariance target that Coloring accepted (nil for the Rayleigh default and
// the panel-level nonstationary model). The target's diagonal supplies the
// per-envelope mean powers Ω_j; snapshots and real-time blocks both take
// their transform from here, so the zoo models see one definition of Ω.
func fadingTransform(fadingModel string, params *chanspec.FadingParams, k *cmplxmat.Matrix, seed int64) (fading.Transform, error) {
	powers := make([]float64, k.Rows())
	for j := range powers {
		powers[j] = real(k.At(j, j))
	}
	tr, err := fading.New(fadingModel, params, powers, seed)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	return tr, nil
}

// The covariance scale window: a target whose largest entry magnitude
// max |K_ij| lies outside [minCovarianceScale, maxCovarianceScale] is
// rejected, the all-zero target excepted (EigenHermitian decomposes it
// exactly). The window keeps the eigensolver's unscaled norms, the forcing
// error and the samples well inside the floating-point range: below about
// 1e-154 the Frobenius norm underflows to 0 and the target decomposes as
// all-zero; above about 1e154 the norms overflow, the target comes back
// undiagonalized (an indefinite one served as if PSD), and further out the
// forcing error and the samples overflow to ±Inf.
const (
	minCovarianceScale = 1e-100
	maxCovarianceScale = 1e100
)

// Coloring resolves a method name into the coloring knobs both core engines
// take: the coloring-matrix override and the unit-variance assumption the
// method carries into the real-time combination of Section 5. The
// generalized method returns (nil, false) — the engine's own eigen coloring
// applies. Every method's setup passes through here, so this is where a nil
// target, one with a NaN or infinite entry, or one outside the covariance
// scale window is rejected (chanspec.ErrBadSpec); other construction
// failures carry New's typed error classes.
func Coloring(method string, k *cmplxmat.Matrix) (coloring *cmplxmat.Matrix, assumeUnitVariance bool, err error) {
	method = chanspec.NormalizeMethod(method)
	if err := chanspec.ValidateMethod(method); err != nil {
		return nil, false, fmt.Errorf("backend: %w", err)
	}
	if k == nil {
		return nil, false, fmt.Errorf("backend: nil covariance matrix: %w", chanspec.ErrBadSpec)
	}
	for i := 0; i < k.Rows(); i++ {
		for j := 0; j < k.Cols(); j++ {
			if v := k.At(i, j); cmplx.IsNaN(v) || cmplx.IsInf(v) {
				return nil, false, fmt.Errorf("backend: covariance entry (%d, %d) = %v is not finite: %w", i, j, v, chanspec.ErrBadSpec)
			}
		}
	}
	if s := cmplxmat.MaxAbs(k); s != 0 && (s < minCovarianceScale || s > maxCovarianceScale) {
		return nil, false, fmt.Errorf("backend: covariance scale max |K_ij| = %g is outside [%g, %g]: %w",
			s, minCovarianceScale, maxCovarianceScale, chanspec.ErrBadSpec)
	}
	if method == chanspec.MethodGeneralized {
		return nil, false, nil
	}
	return baseline.Coloring(method, k)
}
