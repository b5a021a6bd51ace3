package corrmodel

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestGaussianEntryFormula(t *testing.T) {
	// μ = (Rxx + Ryy) − i(Rxy − Ryx), Eq. (13).
	cc := CrossCovariance{Rxx: 0.2, Ryy: 0.3, Rxy: 0.1, Ryx: -0.05}
	want := complex(0.5, -(0.1 - (-0.05)))
	if got := cc.GaussianEntry(); cmplx.Abs(got-want) > 1e-15 {
		t.Errorf("GaussianEntry = %v, want %v", got, want)
	}
}

func TestBuildCovarianceDiagonalAndHermitian(t *testing.T) {
	model := uncorrelatedModel{N: 4}
	powers := []float64{1, 2, 0.5, 3}
	k, err := BuildCovariance(model, powers)
	if err != nil {
		t.Fatalf("BuildCovariance: %v", err)
	}
	for i, p := range powers {
		if math.Abs(real(k.At(i, i))-p) > 1e-15 {
			t.Errorf("diagonal %d = %v, want %g", i, k.At(i, i), p)
		}
	}
	if !k.IsHermitian(0) {
		t.Errorf("covariance of uncorrelated model is not Hermitian")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && k.At(i, j) != 0 {
				t.Errorf("uncorrelated model produced non-zero off-diagonal (%d,%d)", i, j)
			}
		}
	}
}

func TestBuildCovarianceErrors(t *testing.T) {
	model := uncorrelatedModel{N: 3}
	if _, err := BuildCovariance(model, []float64{1, 2}); err == nil {
		t.Errorf("power-count mismatch did not error")
	}
	if _, err := BuildCovariance(model, []float64{1, -1, 2}); err == nil {
		t.Errorf("negative power did not error")
	}
	if _, err := BuildCovariance(uncorrelatedModel{N: 0}, nil); err == nil {
		t.Errorf("zero-size model did not error")
	}
}

func TestUncorrelatedModelOutOfRange(t *testing.T) {
	m := uncorrelatedModel{N: 2}
	if _, err := m.Pair(2, 0); err == nil {
		t.Errorf("out-of-range Pair did not error")
	}
}

func TestPropertyBuiltCovarianceAlwaysHermitian(t *testing.T) {
	// For any spectral model parameters, the assembled covariance matrix must
	// be Hermitian with the requested powers on its diagonal.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 2 + rng.Intn(5)
		freqs := make([]float64, n)
		delays := make([][]float64, n)
		for i := range freqs {
			freqs[i] = 900e6 + float64(rng.Intn(100))*100e3
			delays[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := rng.Float64() * 5e-3
				delays[i][j] = d
				delays[j][i] = d
			}
		}
		m := &SpectralModel{
			MaxDopplerHz:   rng.Float64() * 200,
			RMSDelaySpread: rng.Float64() * 5e-6,
			Power:          0.5 + rng.Float64()*3,
			Frequencies:    freqs,
			Delays:         delays,
		}
		res, err := m.Covariance()
		if err != nil {
			return false
		}
		if !res.Matrix.IsHermitian(1e-12) {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(real(res.Matrix.At(i, i))-m.Power) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySpatialCovarianceHermitian(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		m := &SpatialModel{
			N:                  2 + rng.Intn(5),
			SpacingWavelengths: 0.1 + rng.Float64()*3,
			AngularSpread:      0.05 + rng.Float64()*(math.Pi-0.05),
			MeanAngle:          (rng.Float64()*2 - 1) * math.Pi,
			Power:              0.5 + rng.Float64()*2,
		}
		res, err := m.Covariance()
		if err != nil {
			return false
		}
		return res.Matrix.IsHermitian(1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// uncorrelatedModel describes N mutually independent processes: every
// cross-covariance is zero, the degenerate baseline of BuildCovariance.
type uncorrelatedModel struct {
	N int
}

// Size implements PairModel.
func (m uncorrelatedModel) Size() int { return m.N }

// Pair implements PairModel.
func (m uncorrelatedModel) Pair(k, j int) (CrossCovariance, error) {
	if k < 0 || k >= m.N || j < 0 || j >= m.N {
		return CrossCovariance{}, fmt.Errorf("corrmodel: pair (%d,%d) out of range for size %d: %w", k, j, m.N, ErrBadParameter)
	}
	return CrossCovariance{}, nil
}
