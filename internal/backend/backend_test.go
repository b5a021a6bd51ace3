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
		b, err := New(method, eq23(), 41)
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
		a, err := New(method, eq23(), 7)
		if err != nil {
			t.Fatalf("New(%s): %v", method, err)
		}
		b, err := New(method, eq23(), 7)
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
	if _, err := New(chanspec.MethodErtelReed, eq23(), 1); !errors.Is(err, baseline.ErrUnsupported) {
		t.Errorf("ertel_reed on N=3 error = %v, want ErrUnsupported", err)
	}
	// Salz–Winters requires equal powers.
	unequal := cmplxmat.MustFromRows([][]complex128{{2, 0.5}, {0.5, 1}})
	if _, err := New(chanspec.MethodSalzWinters, unequal, 1); !errors.Is(err, baseline.ErrUnsupported) {
		t.Errorf("salz_winters on unequal powers error = %v, want ErrUnsupported", err)
	}
	// Cholesky-based methods reject indefinite targets numerically.
	for _, method := range []string{chanspec.MethodBeaulieuMerani, chanspec.MethodNatarajan} {
		if _, err := New(method, indefinite(), 1); !errors.Is(err, baseline.ErrSetupFailed) {
			t.Errorf("%s on indefinite error = %v, want ErrSetupFailed", method, err)
		}
	}
	// The generalized engine and the ε-clamp both accept the indefinite
	// target.
	for _, method := range []string{chanspec.MethodGeneralized, chanspec.MethodSorooshyariDaut} {
		if _, err := New(method, indefinite(), 1); err != nil {
			t.Errorf("%s on indefinite: %v", method, err)
		}
	}
	// Unknown names are a spec error.
	if _, err := New("nope", eq23(), 1); !errors.Is(err, chanspec.ErrBadSpec) {
		t.Errorf("unknown method error = %v, want ErrBadSpec", err)
	}
}

func TestDiagnosticsOnlyForGeneralized(t *testing.T) {
	gen, err := New(chanspec.MethodGeneralized, indefinite(), 3)
	if err != nil {
		t.Fatal(err)
	}
	diag := gen.Diagnostics()
	if diag == nil || diag.NumClamped == 0 {
		t.Errorf("generalized diagnostics = %+v, want clamped eigenvalues", diag)
	}
	eps, err := New(chanspec.MethodSorooshyariDaut, indefinite(), 3)
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
}
