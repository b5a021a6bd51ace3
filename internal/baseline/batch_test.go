package baseline

import (
	"errors"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/randx"
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

// allMethods returns one instance of every baseline method with a covariance
// inside its vocabulary.
func allMethods(t *testing.T) []struct {
	m Method
	k *cmplxmat.Matrix
} {
	t.Helper()
	pair := cmplxmat.MustFromRows([][]complex128{
		{1, 0.6},
		{0.6, 1},
	})
	return []struct {
		m Method
		k *cmplxmat.Matrix
	}{
		{&SalzWintersReal{}, chanspec.Eq22Covariance()},
		{&ErtelReedPair{}, pair},
		{&CholeskyColoring{}, chanspec.Eq22Covariance()},
		{&NatarajanColoring{}, eq23()},
		{&EpsilonEigen{}, chanspec.Eq22Covariance()},
	}
}

func TestGenerateIntoMatchesGenerate(t *testing.T) {
	for _, tc := range allMethods(t) {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%s Setup: %v", tc.m.Name(), err)
		}
		n := tc.m.N()
		if n != tc.k.Rows() {
			t.Fatalf("%s N = %d, want %d", tc.m.Name(), n, tc.k.Rows())
		}
		rngA := randx.New(91)
		rngB := randx.New(91)
		gaussian := make([]complex128, n)
		env := make([]float64, n)
		for i := 0; i < 200; i++ {
			z, err := tc.m.Generate(rngA)
			if err != nil {
				t.Fatalf("%s Generate: %v", tc.m.Name(), err)
			}
			if err := tc.m.GenerateInto(rngB, gaussian, env); err != nil {
				t.Fatalf("%s GenerateInto: %v", tc.m.Name(), err)
			}
			for j := 0; j < n; j++ {
				if z[j] != gaussian[j] {
					t.Fatalf("%s draw %d envelope %d: Generate %v, GenerateInto %v", tc.m.Name(), i, j, z[j], gaussian[j])
				}
				if want := envAbs(z[j]); env[j] != want {
					t.Fatalf("%s draw %d envelope %d: envelope %v, want %v", tc.m.Name(), i, j, env[j], want)
				}
			}
		}
	}
}

func TestGenerateIntoDoesNotAllocate(t *testing.T) {
	for _, tc := range allMethods(t) {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%s Setup: %v", tc.m.Name(), err)
		}
		n := tc.m.N()
		rng := randx.New(17)
		gaussian := make([]complex128, n)
		env := make([]float64, n)
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.m.GenerateInto(rng, gaussian, env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s GenerateInto allocates %g objects per draw, want 0", tc.m.Name(), allocs)
		}
	}
}

// batchDst builds a pre-shaped batch destination.
func batchDst(draws, n int) ([][]complex128, [][]float64) {
	g := make([][]complex128, draws)
	e := make([][]float64, draws)
	for i := range g {
		g[i] = make([]complex128, n)
		e[i] = make([]float64, n)
	}
	return g, e
}

func TestGenerateBatchIntoIsDeterministic(t *testing.T) {
	for _, tc := range allMethods(t) {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%s Setup: %v", tc.m.Name(), err)
		}
		n := tc.m.N()
		const draws = 200 // more than one chunk, with a ragged tail
		g1, e1 := batchDst(draws, n)
		g2, e2 := batchDst(draws, n)
		if err := tc.m.GenerateBatchInto(randx.New(23), g1, e1); err != nil {
			t.Fatalf("%s GenerateBatchInto: %v", tc.m.Name(), err)
		}
		if err := tc.m.GenerateBatchInto(randx.New(23), g2, e2); err != nil {
			t.Fatalf("%s GenerateBatchInto: %v", tc.m.Name(), err)
		}
		for i := 0; i < draws; i++ {
			for j := 0; j < n; j++ {
				if g1[i][j] != g2[i][j] || e1[i][j] != e2[i][j] {
					t.Fatalf("%s batch rerun differs at draw %d envelope %d", tc.m.Name(), i, j)
				}
				if want := envAbs(g1[i][j]); e1[i][j] != want {
					t.Fatalf("%s draw %d envelope %d: envelope %v, want %v", tc.m.Name(), i, j, e1[i][j], want)
				}
			}
		}
	}
}

// TestGenerateBatchIntoDoesNotAllocate: once Setup has run, chunk streams
// come from one reused RNG reseeded per chunk, so a pre-shaped batch
// allocates nothing on any method.
func TestGenerateBatchIntoDoesNotAllocate(t *testing.T) {
	for _, tc := range allMethods(t) {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%s Setup: %v", tc.m.Name(), err)
		}
		g, e := batchDst(1024, tc.m.N())
		root := randx.New(31)
		if n := testing.AllocsPerRun(10, func() {
			if err := tc.m.GenerateBatchInto(root, g, e); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s GenerateBatchInto allocates %v per run", tc.m.Name(), n)
		}
	}
}

func TestGenerateBatchIntoMatchesCovariance(t *testing.T) {
	for _, tc := range allMethods(t) {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%s Setup: %v", tc.m.Name(), err)
		}
		n := tc.m.N()
		const draws = 80000
		g, e := batchDst(draws, n)
		if err := tc.m.GenerateBatchInto(randx.New(29), g, e); err != nil {
			t.Fatalf("%s GenerateBatchInto: %v", tc.m.Name(), err)
		}
		d := sampleCovarianceError(t, g, tc.k)
		if d > 0.04 {
			t.Errorf("%s batched sample covariance misses the target by %g", tc.m.Name(), d)
		}
	}
}

func TestBatchBeforeSetupFails(t *testing.T) {
	for _, m := range []Method{&SalzWintersReal{}, &ErtelReedPair{}, &CholeskyColoring{}, &NatarajanColoring{}, &EpsilonEigen{}} {
		g, e := batchDst(4, 2)
		if err := m.GenerateBatchInto(randx.New(1), g, e); !errors.Is(err, ErrSetupFailed) {
			t.Errorf("%s GenerateBatchInto before Setup error = %v, want ErrSetupFailed", m.Name(), err)
		}
		if err := m.GenerateInto(randx.New(1), make([]complex128, 2), make([]float64, 2)); !errors.Is(err, ErrSetupFailed) {
			t.Errorf("%s GenerateInto before Setup error = %v, want ErrSetupFailed", m.Name(), err)
		}
		if m.N() != 0 {
			t.Errorf("%s N before Setup = %d, want 0", m.Name(), m.N())
		}
		if _, _, err := m.RealtimeColoring(); !errors.Is(err, ErrSetupFailed) {
			t.Errorf("%s RealtimeColoring before Setup error = %v, want ErrSetupFailed", m.Name(), err)
		}
	}
}

func TestRealtimeColoringReconstructsCovariance(t *testing.T) {
	for _, tc := range allMethods(t) {
		if err := tc.m.Setup(tc.k); err != nil {
			t.Fatalf("%s Setup: %v", tc.m.Name(), err)
		}
		l, assumeUnit, err := tc.m.RealtimeColoring()
		if err != nil {
			t.Fatalf("%s RealtimeColoring: %v", tc.m.Name(), err)
		}
		if _, isEps := tc.m.(*EpsilonEigen); isEps != assumeUnit {
			t.Errorf("%s assumeUnitVariance = %v", tc.m.Name(), assumeUnit)
		}
		// L·Lᴴ must reproduce the covariance the method achieves. For the
		// real-forced Cholesky that is Re(K); for everything in-vocabulary
		// here it is K itself.
		achieved := tc.k
		if _, isNat := tc.m.(*NatarajanColoring); isNat {
			n := tc.k.Rows()
			re := cmplxmat.New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					re.Set(i, j, complex(real(tc.k.At(i, j)), 0))
				}
			}
			achieved = re
		}
		got := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
		if d := cmplxmat.FrobeniusDistance(got, achieved); d > 1e-9 {
			t.Errorf("%s realtime coloring reconstructs covariance with error %g", tc.m.Name(), d)
		}
	}
}

func TestNewFactoryResolvesEveryBaseline(t *testing.T) {
	want := map[string]string{
		chanspec.MethodSalzWinters:     "real 2N coloring (Salz–Winters 1994)",
		chanspec.MethodErtelReed:       "two-branch (Ertel–Reed 1998)",
		chanspec.MethodBeaulieuMerani:  "cholesky-coloring (Beaulieu–Merani 2000)",
		chanspec.MethodNatarajan:       "real-forced cholesky (Natarajan et al. 2000)",
		chanspec.MethodSorooshyariDaut: "epsilon-eigen (Sorooshyari–Daut 2003)",
	}
	for spec, name := range want {
		m, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if m.Name() != name {
			t.Errorf("New(%q).Name() = %q, want %q", spec, m.Name(), name)
		}
	}
	for _, bad := range []string{chanspec.MethodGeneralized, "", "nope"} {
		if _, err := New(bad); !errors.Is(err, ErrUnsupported) {
			t.Errorf("New(%q) error = %v, want ErrUnsupported", bad, err)
		}
	}
}
