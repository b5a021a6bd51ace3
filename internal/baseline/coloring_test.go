package baseline

import (
	"errors"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/stats"
)

// sampleCovarianceError returns the worst absolute entry difference between
// the sample covariance of the draws and the target.
func sampleCovarianceError(t *testing.T, samples [][]complex128, target *cmplxmat.Matrix) float64 {
	t.Helper()
	cov, err := stats.SampleCovariance(samples)
	if err != nil {
		t.Fatalf("SampleCovariance: %v", err)
	}
	cmp, err := stats.CompareCovariance(cov, target)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	return cmp.MaxAbs
}

// newColoredGenerator builds the core snapshot engine with a method's
// coloring, the way the backend registry samples every conventional method.
func newColoredGenerator(t *testing.T, l, k *cmplxmat.Matrix, seed int64) *core.SnapshotGenerator {
	t.Helper()
	gen, err := core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: k, Seed: seed, Coloring: l})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	return gen
}

// baselineMethods lists every conventional method Coloring resolves.
var baselineMethods = []string{
	chanspec.MethodSalzWinters,
	chanspec.MethodErtelReed,
	chanspec.MethodBeaulieuMerani,
	chanspec.MethodNatarajan,
	chanspec.MethodSorooshyariDaut,
}

type methodCase struct {
	method string
	k      *cmplxmat.Matrix
}

// allMethods pairs every baseline method with a covariance inside its
// vocabulary.
func allMethods() []methodCase {
	pair := cmplxmat.MustFromRows([][]complex128{
		{1, 0.6},
		{0.6, 1},
	})
	return []methodCase{
		{chanspec.MethodSalzWinters, chanspec.Eq22Covariance()},
		{chanspec.MethodErtelReed, pair},
		{chanspec.MethodBeaulieuMerani, chanspec.Eq22Covariance()},
		{chanspec.MethodNatarajan, eq23()},
		{chanspec.MethodSorooshyariDaut, chanspec.Eq22Covariance()},
	}
}

// TestGenerateIntoDoesNotAllocate: every method's single draws are
// allocation-free, on the real-coloring matvec (the Ertel–Reed pair, the
// real Eq. (23) target) as on the complex one.
func TestGenerateIntoDoesNotAllocate(t *testing.T) {
	for _, tc := range allMethods() {
		gen := newColoredGenerator(t, coloring(t, tc.method, tc.k), tc.k, 17)
		gaussian := make([]complex128, gen.N())
		env := make([]float64, gen.N())
		if allocs := testing.AllocsPerRun(200, func() {
			if err := gen.GenerateInto(gaussian, env); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s GenerateInto allocates %g objects per draw, want 0", tc.method, allocs)
		}
	}
}

// TestGenerateBatchIntoDoesNotAllocate: a pre-shaped sequential batch of
// every method's draws allocates nothing once the engine's panels exist, on
// the real ColorBlock kernel as on the complex one.
func TestGenerateBatchIntoDoesNotAllocate(t *testing.T) {
	for _, tc := range allMethods() {
		gen := newColoredGenerator(t, coloring(t, tc.method, tc.k), tc.k, 31)
		dst := make([]core.Snapshot, 1024)
		for i := range dst {
			dst[i].Gaussian = make([]complex128, gen.N())
			dst[i].Envelopes = make([]float64, gen.N())
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := gen.GenerateBatchInto(dst, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s GenerateBatchInto allocates %v per run", tc.method, n)
		}
	}
}

func TestGenerateBatchIntoMatchesCovariance(t *testing.T) {
	for _, tc := range allMethods() {
		gen := newColoredGenerator(t, coloring(t, tc.method, tc.k), tc.k, 29)
		const draws = 80000
		dst := make([]core.Snapshot, draws)
		if err := gen.GenerateBatchInto(dst, 2); err != nil {
			t.Fatalf("%s GenerateBatchInto: %v", tc.method, err)
		}
		samples := make([][]complex128, draws)
		for i := range dst {
			samples[i] = dst[i].Gaussian
		}
		if d := sampleCovarianceError(t, samples, tc.k); d > 0.04 {
			t.Errorf("%s batched sample covariance misses the target by %g", tc.method, d)
		}
	}
}

// TestColoringReconstructsCovariance checks deterministically that each
// method's coloring achieves the covariance the method claims: K itself
// inside its vocabulary, Re(K) for the real-forced Cholesky on a complex
// target, and the ε-clamped approximation for Sorooshyari–Daut on an
// indefinite one.
func TestColoringReconstructsCovariance(t *testing.T) {
	cases := append(allMethods(),
		methodCase{chanspec.MethodNatarajan, chanspec.Eq22Covariance()},
		methodCase{chanspec.MethodSorooshyariDaut, indefinite()},
	)
	for _, tc := range cases {
		l, assumeUnit, err := Coloring(tc.method, tc.k)
		if err != nil {
			t.Fatalf("%s Coloring: %v", tc.method, err)
		}
		achieved := tc.k
		switch tc.method {
		case chanspec.MethodNatarajan:
			n := tc.k.Rows()
			re := cmplxmat.New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					re.Set(i, j, complex(real(tc.k.At(i, j)), 0))
				}
			}
			achieved = re
		case chanspec.MethodSorooshyariDaut:
			eig, err := cmplxmat.EigenHermitian(tc.k)
			if err != nil {
				t.Fatalf("EigenHermitian: %v", err)
			}
			for i, v := range eig.Values {
				if v <= 0 {
					eig.Values[i] = DefaultEpsilon
				}
			}
			achieved = eig.Reconstruct()
		}
		if isEps := tc.method == chanspec.MethodSorooshyariDaut; isEps != assumeUnit {
			t.Errorf("%s assumeUnitVariance = %v", tc.method, assumeUnit)
		}
		got := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
		if d := cmplxmat.FrobeniusDistance(got, achieved); d > 1e-9 {
			t.Errorf("%s on %v: coloring reconstructs covariance with error %g", tc.method, tc.k, d)
		}
	}
}

// TestColoringRefusesNonBaselines: the generalized engine, its empty-name
// default and an unknown name are not baseline methods.
func TestColoringRefusesNonBaselines(t *testing.T) {
	for _, name := range []string{chanspec.MethodGeneralized, "", "nope"} {
		if _, _, err := Coloring(name, eq23()); !errors.Is(err, ErrUnsupported) {
			t.Errorf("Coloring(%q) error = %v, want ErrUnsupported", name, err)
		}
	}
}
