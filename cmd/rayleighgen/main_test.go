package main

import (
	"math/cmplx"
	"testing"

	"repro/internal/cmplxmat"
)

func TestBuildCovarianceUniformRho(t *testing.T) {
	k, err := buildCovariance(3, 0.4, 2, 0, 50, 1e-6)
	if err != nil {
		t.Fatalf("buildCovariance: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex(0.8, 0)
			if i == j {
				want = 2
			}
			if cmplx.Abs(k.At(i, j)-want) > 1e-12 {
				t.Errorf("K(%d,%d) = %v, want %v", i, j, k.At(i, j), want)
			}
		}
	}
}

func TestBuildCovarianceRejectsBadRho(t *testing.T) {
	if _, err := buildCovariance(2, 1.5, 1, 0, 50, 1e-6); err == nil {
		t.Errorf("rho > 1 did not error")
	}
	if _, err := buildCovariance(2, -1.5, 1, 0, 50, 1e-6); err == nil {
		t.Errorf("rho < -1 did not error")
	}
}

func TestBuildCovarianceSpectralMode(t *testing.T) {
	// With a 200 kHz spacing and the paper's channel parameters the adjacent
	// pair correlation must match the Eq. (22) real part at zero delay.
	k, err := buildCovariance(3, 0, 1, 200e3, 50, 1e-6)
	if err != nil {
		t.Fatalf("buildCovariance: %v", err)
	}
	if !k.IsHermitian(1e-12) {
		t.Errorf("spectral covariance is not Hermitian")
	}
	if e, err := cmplxmat.EigenHermitian(k); err != nil || e.Values[0] <= 1e-10 {
		t.Errorf("spectral covariance not positive definite: %v %v", e, err)
	}
	// Zero arrival delays: J0(0)=1, so |K(0,1)| = 1/sqrt(1+(2π·Δf·στ)²)·
	// sqrt(1+(Δω στ)²)… more simply the magnitude must decay with separation.
	if cmplx.Abs(k.At(0, 2)) >= cmplx.Abs(k.At(0, 1)) {
		t.Errorf("correlation does not decay with carrier separation")
	}
}
