package stats

import (
	"fmt"
	"math/cmplx"

	"repro/internal/cmplxmat"
)

// SampleCovariance estimates E(Z·Zᴴ) from independent draws of a zero-mean
// complex vector: samples[i] is the i-th draw of the N-dimensional vector.
// This is the estimator used to check that the generated Gaussians follow the
// desired covariance matrix (Section 4.5 of the paper).
func SampleCovariance(samples [][]complex128) (*cmplxmat.Matrix, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("stats: SampleCovariance with no samples: %w", ErrBadInput)
	}
	n := len(samples[0])
	if n == 0 {
		return nil, fmt.Errorf("stats: SampleCovariance with empty vectors: %w", ErrBadInput)
	}
	acc := cmplxmat.New(n, n)
	for idx, z := range samples {
		if len(z) != n {
			return nil, fmt.Errorf("stats: sample %d has dimension %d, want %d: %w", idx, len(z), n, ErrBadInput)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc.Set(i, j, acc.At(i, j)+z[i]*cmplx.Conj(z[j]))
			}
		}
	}
	scale := complex(1/float64(len(samples)), 0)
	return cmplxmat.Scale(scale, acc), nil
}

// SampleCovarianceFromSeries estimates E(Z·Zᴴ) from N time series observed
// jointly: series[j][l] is process j at time l. Time samples are treated as
// (possibly dependent) draws; for an ergodic process the estimate converges
// to the ensemble covariance.
func SampleCovarianceFromSeries(series [][]complex128) (*cmplxmat.Matrix, error) {
	n := len(series)
	if n == 0 {
		return nil, fmt.Errorf("stats: SampleCovarianceFromSeries with no series: %w", ErrBadInput)
	}
	m := len(series[0])
	if m == 0 {
		return nil, fmt.Errorf("stats: SampleCovarianceFromSeries with empty series: %w", ErrBadInput)
	}
	for j, s := range series {
		if len(s) != m {
			return nil, fmt.Errorf("stats: series %d has length %d, want %d: %w", j, len(s), m, ErrBadInput)
		}
	}
	acc := cmplxmat.New(n, n)
	for l := 0; l < m; l++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc.Set(i, j, acc.At(i, j)+series[i][l]*cmplx.Conj(series[j][l]))
			}
		}
	}
	return cmplxmat.Scale(complex(1/float64(m), 0), acc), nil
}

// CovarianceError summarizes how far a sample covariance is from a target:
// the Frobenius distance and the worst absolute entry difference.
type CovarianceError struct {
	Frobenius float64
	MaxAbs    float64
	// Relative is Frobenius normalized by the Frobenius norm of the target.
	Relative float64
}

// CompareCovariance returns error metrics between an estimate and a target
// covariance matrix.
func CompareCovariance(estimate, target *cmplxmat.Matrix) (CovarianceError, error) {
	if estimate.Rows() != target.Rows() || estimate.Cols() != target.Cols() {
		return CovarianceError{}, fmt.Errorf("stats: covariance size mismatch %dx%d vs %dx%d: %w",
			estimate.Rows(), estimate.Cols(), target.Rows(), target.Cols(), ErrBadInput)
	}
	diff, err := cmplxmat.Sub(estimate, target)
	if err != nil {
		return CovarianceError{}, err
	}
	frob := cmplxmat.FrobeniusNorm(diff)
	targetNorm := cmplxmat.FrobeniusNorm(target)
	rel := frob
	if targetNorm > 0 {
		rel = frob / targetNorm
	}
	return CovarianceError{
		Frobenius: frob,
		MaxAbs:    cmplxmat.MaxAbs(diff),
		Relative:  rel,
	}, nil
}
