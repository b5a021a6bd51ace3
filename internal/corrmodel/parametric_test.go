package corrmodel

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cmplxmat"
)

func TestExponentialModelCovariance(t *testing.T) {
	m := &ExponentialModel{N: 4, Rho: 0.7, Power: 2}
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 2 * math.Pow(0.7, math.Abs(float64(i-j)))
			if cmplx.Abs(res.Matrix.At(i, j)-complex(want, 0)) > 1e-12 {
				t.Errorf("K(%d,%d) = %v, want %g", i, j, res.Matrix.At(i, j), want)
			}
		}
	}
	// Exponential correlation matrices are always positive definite.
	if e, err := cmplxmat.EigenHermitian(res.Matrix); err != nil || e.Values[0] <= 1e-10 {
		t.Errorf("exponential covariance not positive definite: %v %v", e, err)
	}
}

func TestExponentialModelWithPhase(t *testing.T) {
	m := &ExponentialModel{N: 3, Rho: 0.5, PhaseRad: math.Pi / 3, Power: 1}
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	// μ(0,1) must be 0.5·e^{-iπ/3}? Careful: Pair(k=0,j=1): sep = -1, so
	// phase = −π/3 and μ = 0.5·e^{−iπ/3}. Verify against the direct formula.
	want := complex(0.5*math.Cos(-math.Pi/3), 0.5*math.Sin(-math.Pi/3))
	if cmplx.Abs(res.Matrix.At(0, 1)-want) > 1e-12 {
		t.Errorf("K(0,1) = %v, want %v", res.Matrix.At(0, 1), want)
	}
	if !res.Matrix.IsHermitian(1e-12) {
		t.Errorf("phased exponential covariance not Hermitian")
	}
	// It remains positive definite for |ρ| < 1 regardless of the phase.
	if e, err := cmplxmat.EigenHermitian(res.Matrix); err != nil || e.Values[0] <= 1e-10 {
		t.Errorf("phased exponential covariance not positive definite")
	}
}

func TestExponentialModelValidation(t *testing.T) {
	cases := []*ExponentialModel{
		{N: 0, Rho: 0.5, Power: 1},
		{N: 3, Rho: -0.1, Power: 1},
		{N: 3, Rho: 1, Power: 1},
		{N: 3, Rho: 0.5, Power: 0},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate did not error", i)
		}
	}
	good := &ExponentialModel{N: 3, Rho: 0.5, Power: 1}
	if _, err := good.Pair(0, 3); err == nil {
		t.Errorf("out-of-range Pair did not error")
	}
}

func TestConstantModelCovariance(t *testing.T) {
	m := &ConstantModel{N: 3, Rho: 0.4, Power: 1}
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex(0.4, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(res.Matrix.At(i, j)-want) > 1e-12 {
				t.Errorf("K(%d,%d) = %v, want %v", i, j, res.Matrix.At(i, j), want)
			}
		}
	}
}

func TestConstantModelIndefiniteRegime(t *testing.T) {
	// ρ = −0.9 with N = 3 violates ρ >= −1/(N−1) = −0.5, so the matrix is
	// indefinite — the paper's forcing procedure must be engaged downstream.
	for _, tc := range []struct {
		m          *ConstantModel
		indefinite bool
	}{
		{&ConstantModel{N: 3, Rho: -0.9, Power: 1}, true},
		{&ConstantModel{N: 3, Rho: -0.4, Power: 1}, false},
		{&ConstantModel{N: 1, Rho: 0, Power: 1}, false},
	} {
		res, err := tc.m.Covariance()
		if err != nil {
			t.Fatalf("Covariance: %v", err)
		}
		e, err := cmplxmat.EigenHermitian(res.Matrix)
		if err != nil {
			t.Fatalf("EigenHermitian: %v", err)
		}
		if min := e.Values[0]; (min < 0) != tc.indefinite {
			t.Errorf("N=%d ρ=%g: min eigenvalue %g, want indefinite=%v", tc.m.N, tc.m.Rho, min, tc.indefinite)
		}
	}
}

func TestConstantModelValidation(t *testing.T) {
	cases := []*ConstantModel{
		{N: 0, Rho: 0.5, Power: 1},
		{N: 3, Rho: 1.5, Power: 1},
		{N: 3, Rho: -1.5, Power: 1},
		{N: 3, Rho: 0.5, Power: -1},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate did not error", i)
		}
	}
	good := &ConstantModel{N: 2, Rho: 0.5, Power: 1}
	if _, err := good.Pair(-1, 0); err == nil {
		t.Errorf("out-of-range Pair did not error")
	}
}
