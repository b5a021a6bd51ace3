package backend

import (
	"errors"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/stats"
)

func eq23() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	})
}

func indefinite() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.9, -0.9},
		{0.9, 1, 0.9},
		{-0.9, 0.9, 1},
	})
}

// everyN3Method lists the methods whose vocabulary covers the equal-power
// real PSD eq23 matrix.
var everyN3Method = []string{
	chanspec.MethodGeneralized,
	chanspec.MethodSalzWinters,
	chanspec.MethodBeaulieuMerani,
	chanspec.MethodNatarajan,
	chanspec.MethodSorooshyariDaut,
}

func TestEveryBackendMatchesTargetOnGoldenMatrix(t *testing.T) {
	for _, method := range everyN3Method {
		b, err := New(method, chanspec.FadingRayleigh, nil, eq23(), 41)
		if err != nil {
			t.Fatalf("New(%s): %v", method, err)
		}
		if b.N() != 3 {
			t.Errorf("%s N = %d, want 3", method, b.N())
		}
		const draws = 60000
		dst := make([]core.Snapshot, draws)
		if err := b.GenerateBatchInto(dst, 2); err != nil {
			t.Fatalf("%s GenerateBatchInto: %v", method, err)
		}
		samples := make([][]complex128, draws)
		for i := range dst {
			samples[i] = dst[i].Gaussian
		}
		cov, err := stats.SampleCovariance(samples)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := stats.CompareCovariance(cov, eq23())
		if err != nil {
			t.Fatal(err)
		}
		if cmp.MaxAbs > 0.04 {
			t.Errorf("%s misses the golden covariance by %g", method, cmp.MaxAbs)
		}
	}
}

func TestGenerateIntoIsDeterministicPerMethod(t *testing.T) {
	for _, method := range everyN3Method {
		a, err := New(method, chanspec.FadingRayleigh, nil, eq23(), 7)
		if err != nil {
			t.Fatalf("New(%s): %v", method, err)
		}
		b, err := New(method, chanspec.FadingRayleigh, nil, eq23(), 7)
		if err != nil {
			t.Fatalf("New(%s): %v", method, err)
		}
		ga, ea := make([]complex128, 3), make([]float64, 3)
		gb, eb := make([]complex128, 3), make([]float64, 3)
		for i := 0; i < 64; i++ {
			if err := a.GenerateInto(ga, ea); err != nil {
				t.Fatal(err)
			}
			if err := b.GenerateInto(gb, eb); err != nil {
				t.Fatal(err)
			}
			for j := range ga {
				if ga[j] != gb[j] || ea[j] != eb[j] {
					t.Fatalf("%s twin backends diverge at draw %d", method, i)
				}
			}
		}
	}
}

func TestConstructionFailureClasses(t *testing.T) {
	// Ertel–Reed cannot express N = 3: out of vocabulary.
	if _, err := New(chanspec.MethodErtelReed, chanspec.FadingRayleigh, nil, eq23(), 1); !errors.Is(err, baseline.ErrUnsupported) {
		t.Errorf("ertel_reed on N=3 error = %v, want ErrUnsupported", err)
	}
	// Salz–Winters requires equal powers.
	unequal := cmplxmat.MustFromRows([][]complex128{{2, 0.5}, {0.5, 1}})
	if _, err := New(chanspec.MethodSalzWinters, chanspec.FadingRayleigh, nil, unequal, 1); !errors.Is(err, baseline.ErrUnsupported) {
		t.Errorf("salz_winters on unequal powers error = %v, want ErrUnsupported", err)
	}
	// Cholesky-based methods reject indefinite targets numerically.
	for _, method := range []string{chanspec.MethodBeaulieuMerani, chanspec.MethodNatarajan} {
		if _, err := New(method, chanspec.FadingRayleigh, nil, indefinite(), 1); !errors.Is(err, baseline.ErrSetupFailed) {
			t.Errorf("%s on indefinite error = %v, want ErrSetupFailed", method, err)
		}
	}
	// The generalized engine and the ε-clamp both accept the indefinite
	// target.
	for _, method := range []string{chanspec.MethodGeneralized, chanspec.MethodSorooshyariDaut} {
		if _, err := New(method, chanspec.FadingRayleigh, nil, indefinite(), 1); err != nil {
			t.Errorf("%s on indefinite: %v", method, err)
		}
	}
	// Unknown names are a spec error.
	if _, err := New("nope", chanspec.FadingRayleigh, nil, eq23(), 1); !errors.Is(err, chanspec.ErrBadSpec) {
		t.Errorf("unknown method error = %v, want ErrBadSpec", err)
	}
}

func TestDiagnosticsOnlyForGeneralized(t *testing.T) {
	gen, err := New(chanspec.MethodGeneralized, chanspec.FadingRayleigh, nil, indefinite(), 3)
	if err != nil {
		t.Fatal(err)
	}
	diag := gen.Diagnostics()
	if diag == nil || diag.NumClamped == 0 {
		t.Errorf("generalized diagnostics = %+v, want clamped eigenvalues", diag)
	}
	eps, err := New(chanspec.MethodSorooshyariDaut, chanspec.FadingRayleigh, nil, indefinite(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if eps.Diagnostics() != nil {
		t.Errorf("baseline backend reports forcing diagnostics")
	}
}

func TestColoring(t *testing.T) {
	// Generalized: no override.
	l, unit, err := Coloring(chanspec.MethodGeneralized, eq23())
	if err != nil || l != nil || unit {
		t.Errorf("generalized override = (%v, %v, %v), want (nil, false, nil)", l, unit, err)
	}
	// Cholesky: L·Lᴴ = K, no unit-variance assumption.
	l, unit, err = Coloring(chanspec.MethodBeaulieuMerani, eq23())
	if err != nil || unit {
		t.Fatalf("beaulieu override: %v %v", unit, err)
	}
	got := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
	if d := cmplxmat.FrobeniusDistance(got, eq23()); d > 1e-9 {
		t.Errorf("cholesky override reconstructs covariance with error %g", d)
	}
	// Sorooshyari–Daut carries the unit-variance defect.
	_, unit, err = Coloring(chanspec.MethodSorooshyariDaut, eq23())
	if err != nil || !unit {
		t.Errorf("sorooshyari override unit = %v (%v), want true", unit, err)
	}
	// Failure classes propagate.
	if _, _, err := Coloring(chanspec.MethodBeaulieuMerani, indefinite()); !errors.Is(err, baseline.ErrSetupFailed) {
		t.Errorf("beaulieu on indefinite error = %v, want ErrSetupFailed", err)
	}
	if _, _, err := Coloring(chanspec.MethodErtelReed, eq23()); !errors.Is(err, baseline.ErrUnsupported) {
		t.Errorf("ertel_reed on N=3 error = %v, want ErrUnsupported", err)
	}
	// The covariance scale window: [[1, 2], [2, 1]]·s at max |K_ij| = 2s on
	// either edge, and the all-zero target, are accepted; just outside is a
	// spec error.
	pair := func(s float64) *cmplxmat.Matrix {
		return cmplxmat.MustFromRows([][]complex128{{complex(s, 0), complex(2*s, 0)}, {complex(2*s, 0), complex(s, 0)}})
	}
	for _, k := range []*cmplxmat.Matrix{cmplxmat.New(2, 2), pair(0.5e-100), pair(0.5e100)} {
		if _, _, err := Coloring(chanspec.MethodGeneralized, k); err != nil {
			t.Errorf("in-window target %v: %v", k, err)
		}
	}
	for _, k := range []*cmplxmat.Matrix{pair(0.4e-100), pair(0.6e100)} {
		if _, _, err := Coloring(chanspec.MethodGeneralized, k); !errors.Is(err, chanspec.ErrBadSpec) {
			t.Errorf("out-of-window target %v error = %v, want ErrBadSpec", k, err)
		}
	}
}
