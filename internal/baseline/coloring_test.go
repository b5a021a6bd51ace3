package baseline

import (
	"errors"
	"reflect"
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

// newColoredGenerator builds the core snapshot engine with a set-up method's
// coloring, the way the backend registry samples every conventional method.
func newColoredGenerator(t *testing.T, m Method, k *cmplxmat.Matrix, seed int64) *core.SnapshotGenerator {
	t.Helper()
	l, _, err := m.Coloring()
	if err != nil {
		t.Fatalf("%T Coloring: %v", m, err)
	}
	gen, err := core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: k, Seed: seed, Coloring: l})
	if err != nil {
		t.Fatalf("%T NewSnapshotGenerator: %v", m, err)
	}
	return gen
}

type methodCase struct {
	m Method
	k *cmplxmat.Matrix
}

// allMethods returns one instance of every baseline method with a covariance
// inside its vocabulary.
func allMethods() []methodCase {
	pair := cmplxmat.MustFromRows([][]complex128{
		{1, 0.6},
		{0.6, 1},
	})
	return []methodCase{
		{&SalzWintersReal{}, chanspec.Eq22Covariance()},
		{&ErtelReedPair{}, pair},
		{&CholeskyColoring{}, chanspec.Eq22Covariance()},
		{&NatarajanColoring{}, eq23()},
		{&EpsilonEigen{}, chanspec.Eq22Covariance()},
	}
}

// TestGenerateIntoDoesNotAllocate: every method's single draws are
// allocation-free, on the real-coloring matvec (the Ertel–Reed pair, the
// real Eq. (23) target) as on the complex one.
func TestGenerateIntoDoesNotAllocate(t *testing.T) {
	for _, tc := range allMethods() {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%T Setup: %v", tc.m, err)
		}
		gen := newColoredGenerator(t, tc.m, tc.k, 17)
		gaussian := make([]complex128, gen.N())
		env := make([]float64, gen.N())
		if allocs := testing.AllocsPerRun(200, func() {
			if err := gen.GenerateInto(gaussian, env); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%T GenerateInto allocates %g objects per draw, want 0", tc.m, allocs)
		}
	}
}

// TestGenerateBatchIntoDoesNotAllocate: a pre-shaped sequential batch of
// every method's draws allocates nothing once the engine's panels exist, on
// the real ColorBlock kernel as on the complex one.
func TestGenerateBatchIntoDoesNotAllocate(t *testing.T) {
	for _, tc := range allMethods() {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%T Setup: %v", tc.m, err)
		}
		gen := newColoredGenerator(t, tc.m, tc.k, 31)
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
			t.Errorf("%T GenerateBatchInto allocates %v per run", tc.m, n)
		}
	}
}

func TestGenerateBatchIntoMatchesCovariance(t *testing.T) {
	for _, tc := range allMethods() {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%T Setup: %v", tc.m, err)
		}
		gen := newColoredGenerator(t, tc.m, tc.k, 29)
		const draws = 80000
		dst := make([]core.Snapshot, draws)
		if err := gen.GenerateBatchInto(dst, 2); err != nil {
			t.Fatalf("%T GenerateBatchInto: %v", tc.m, err)
		}
		samples := make([][]complex128, draws)
		for i := range dst {
			samples[i] = dst[i].Gaussian
		}
		if d := sampleCovarianceError(t, samples, tc.k); d > 0.04 {
			t.Errorf("%T batched sample covariance misses the target by %g", tc.m, d)
		}
	}
}

// TestColoringReconstructsCovariance checks deterministically that each
// method's coloring achieves the covariance the method claims: K itself
// inside its vocabulary, Re(K) for the real-forced Cholesky on a complex
// target, and the ε-clamped approximation for Sorooshyari–Daut on an
// indefinite one. Coloring must refuse to answer before Setup.
func TestColoringReconstructsCovariance(t *testing.T) {
	cases := append(allMethods(),
		methodCase{&NatarajanColoring{}, chanspec.Eq22Covariance()},
		methodCase{&EpsilonEigen{}, indefinite()},
	)
	for _, tc := range cases {
		if _, _, err := tc.m.Coloring(); !errors.Is(err, ErrSetupFailed) {
			t.Errorf("%T Coloring before Setup error = %v, want ErrSetupFailed", tc.m, err)
		}
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%T Setup: %v", tc.m, err)
		}
		l, assumeUnit, err := tc.m.Coloring()
		if err != nil {
			t.Fatalf("%T Coloring: %v", tc.m, err)
		}
		achieved := tc.k
		switch m := tc.m.(type) {
		case *NatarajanColoring:
			n := tc.k.Rows()
			re := cmplxmat.New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					re.Set(i, j, complex(real(tc.k.At(i, j)), 0))
				}
			}
			achieved = re
		case *EpsilonEigen:
			achieved = m.ApproximatedCovariance()
		}
		if _, isEps := tc.m.(*EpsilonEigen); isEps != assumeUnit {
			t.Errorf("%T assumeUnitVariance = %v", tc.m, assumeUnit)
		}
		got := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
		if d := cmplxmat.FrobeniusDistance(got, achieved); d > 1e-9 {
			t.Errorf("%T on %v: coloring reconstructs covariance with error %g", tc.m, tc.k, d)
		}
	}
}

func TestNewFactoryResolvesEveryBaseline(t *testing.T) {
	want := map[string]Method{
		chanspec.MethodSalzWinters:     &SalzWintersReal{},
		chanspec.MethodErtelReed:       &ErtelReedPair{},
		chanspec.MethodBeaulieuMerani:  &CholeskyColoring{},
		chanspec.MethodNatarajan:       &NatarajanColoring{},
		chanspec.MethodSorooshyariDaut: &EpsilonEigen{},
	}
	for spec, w := range want {
		m, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if reflect.TypeOf(m) != reflect.TypeOf(w) {
			t.Errorf("New(%q) = %T, want %T", spec, m, w)
		}
	}
	for _, bad := range []string{chanspec.MethodGeneralized, "", "nope"} {
		if _, err := New(bad); !errors.Is(err, ErrUnsupported) {
			t.Errorf("New(%q) error = %v, want ErrUnsupported", bad, err)
		}
	}
}
