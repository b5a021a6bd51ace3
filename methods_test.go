package rayleigh

import (
	"errors"
	"math/cmplx"
	"reflect"
	"testing"
)

// goldenCovariance is the paper's Eq. (23) matrix: equal powers, real,
// positive definite — inside every N = 3-capable method's vocabulary.
func goldenCovariance() [][]complex128 {
	return [][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	}
}

// indefiniteCovariance is Hermitian with unit diagonal but not positive
// semi-definite: the Cholesky-based methods reject it, the generalized method
// zero-clamps it and Sorooshyari–Daut ε-clamps it.
func indefiniteCovariance() [][]complex128 {
	return [][]complex128{
		{1, 0.9, -0.9},
		{0.9, 1, 0.9},
		{-0.9, 0.9, 1},
	}
}

// sampleCovarianceError draws batched snapshots from gen and returns the
// worst absolute entry difference between the sample covariance and target.
func sampleCovarianceError(t *testing.T, gen *Generator, target [][]complex128, draws int) float64 {
	t.Helper()
	batch := make([]Snapshot, draws)
	if err := gen.SnapshotsInto(batch); err != nil {
		t.Fatalf("SnapshotsInto: %v", err)
	}
	n := gen.N()
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum complex128
			for _, s := range batch {
				sum += s.Gaussian[i] * cmplx.Conj(s.Gaussian[j])
			}
			got := sum / complex(float64(draws), 0)
			if d := cmplx.Abs(got - target[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestEveryMethodAgreesOnGoldenCovariance is the cross-method golden test:
// for an equal-power, real, positive-definite covariance every backend must
// reproduce the generalized engine's target within tolerance.
func TestEveryMethodAgreesOnGoldenCovariance(t *testing.T) {
	for _, method := range []string{
		MethodGeneralized, MethodSalzWinters, MethodBeaulieuMerani,
		MethodNatarajan, MethodSorooshyariDaut,
	} {
		gen, err := New(Config{Method: method, Covariance: goldenCovariance(), Seed: 113})
		if err != nil {
			t.Fatalf("New(%s): %v", method, err)
		}
		if gen.Method() != method && !(method == "" && gen.Method() == MethodGeneralized) {
			t.Errorf("Method() = %q, want %q", gen.Method(), method)
		}
		if d := sampleCovarianceError(t, gen, goldenCovariance(), 60000); d > 0.04 {
			t.Errorf("%s misses the golden covariance by %g", method, d)
		}
	}

	// Ertel–Reed needs N = 2; the equal-power real pair is its home turf.
	pair := [][]complex128{{1, 0.6}, {0.6, 1}}
	gen, err := New(Config{Method: MethodErtelReed, Covariance: pair, Seed: 113})
	if err != nil {
		t.Fatalf("New(ertel_reed): %v", err)
	}
	if d := sampleCovarianceError(t, gen, pair, 60000); d > 0.04 {
		t.Errorf("ertel_reed misses the pair covariance by %g", d)
	}
}

// TestMethodFailureClasses pins each documented failure class to its public
// typed error.
func TestMethodFailureClasses(t *testing.T) {
	unequal := [][]complex128{{2, 0.5}, {0.5, 1}}
	complexPair := [][]complex128{{1, 0.5 + 0.3i}, {0.5 - 0.3i, 1}}
	indefinite := indefiniteCovariance()
	cases := []struct {
		method string
		cov    [][]complex128
		want   error
	}{
		{MethodErtelReed, goldenCovariance(), ErrMethodUnsupported},            // N != 2
		{MethodErtelReed, unequal, ErrMethodUnsupported},                       // unequal powers
		{MethodErtelReed, complexPair, ErrMethodUnsupported},                   // complex correlation
		{MethodSalzWinters, unequal, ErrMethodUnsupported},                     // unequal powers
		{MethodSalzWinters, indefinite, ErrMethodSetup},                        // non-PSD real coloring
		{MethodBeaulieuMerani, indefinite, ErrMethodSetup},                     // Cholesky rejects
		{MethodNatarajan, indefinite, ErrMethodSetup},                          // real part not PD
		{MethodBeaulieuMerani, [][]complex128{{1, 1}, {1, 1}}, ErrMethodSetup}, // rank deficient
	}
	for _, tc := range cases {
		_, err := New(Config{Method: tc.method, Covariance: tc.cov, Seed: 1})
		if !errors.Is(err, tc.want) {
			t.Errorf("New(%s, %v) error = %v, want %v", tc.method, tc.cov, err, tc.want)
		}
	}

	// The same classes gate the real-time entry point.
	if _, err := NewStream(RealTimeConfig{
		Covariance: goldenCovariance(), IDFTPoints: 256, NormalizedDoppler: 0.05,
		Seed: 1, Method: MethodErtelReed,
	}); !errors.Is(err, ErrMethodUnsupported) {
		t.Errorf("NewStream(ertel_reed, N=3) error = %v, want ErrMethodUnsupported", err)
	}
	if _, err := NewStream(RealTimeConfig{
		Covariance: indefinite, IDFTPoints: 256, NormalizedDoppler: 0.05,
		Seed: 1, Method: MethodBeaulieuMerani,
	}); !errors.Is(err, ErrMethodSetup) {
		t.Errorf("NewStream(beaulieu_merani, indefinite) error = %v, want ErrMethodSetup", err)
	}

	// Unknown names are an invalid configuration, not a method failure.
	if _, err := New(Config{Method: "nope", Covariance: goldenCovariance(), Seed: 1}); err == nil {
		t.Errorf("unknown method did not error")
	}

	// The generalized engine accepts everything above.
	for _, cov := range [][][]complex128{unequal, complexPair, indefinite} {
		if _, err := New(Config{Covariance: cov, Seed: 1}); err != nil {
			t.Errorf("generalized on %v: %v", cov, err)
		}
	}
}

// TestDiagnosticsReportOnlyAppliedForcing: Diagnostics describes the forcing
// the method applied. Sorooshyari–Daut ε-clamps the indefinite target itself,
// so its snapshot generator and stream both report the zero value; the
// generalized method reports its zero clamp.
func TestDiagnosticsReportOnlyAppliedForcing(t *testing.T) {
	cfg := RealTimeConfig{
		Covariance: indefiniteCovariance(), IDFTPoints: 256, NormalizedDoppler: 0.05,
		Seed: 1, Method: MethodSorooshyariDaut,
	}
	gen, err := New(Config{Method: cfg.Method, Covariance: cfg.Covariance, Seed: cfg.Seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stream, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	for name, d := range map[string]Diagnostics{
		"Generator": gen.Diagnostics(),
		"Stream":    stream.Diagnostics(),
	} {
		if !reflect.DeepEqual(d, Diagnostics{}) {
			t.Errorf("sorooshyari_daut %s.Diagnostics() = %+v, want the zero value", name, d)
		}
	}

	cfg.Method = MethodGeneralized
	stream, err = NewStream(cfg)
	if err != nil {
		t.Fatalf("NewStream(generalized): %v", err)
	}
	if d := stream.Diagnostics(); d.ClampedEigenvalues != 1 || d.ApproximationError <= 0 {
		t.Errorf("generalized Stream.Diagnostics() = %+v, want one clamped eigenvalue", d)
	}
}

// TestMethodsCatalog sanity-checks the public catalog.
func TestMethodsCatalog(t *testing.T) {
	infos := Methods()
	if len(infos) != 6 {
		t.Fatalf("Methods() returned %d entries, want 6", len(infos))
	}
	if infos[0].Name != MethodGeneralized {
		t.Errorf("catalog does not lead with the generalized method")
	}
	for _, m := range infos {
		if m.Name == "" || m.Title == "" || m.Citation == "" || m.Constraints == "" {
			t.Errorf("catalog entry %+v has empty fields", m)
		}
		if _, err := New(Config{Method: m.Name, Covariance: [][]complex128{{1, 0.5}, {0.5, 1}}, Seed: 1}); err != nil {
			t.Errorf("catalog method %s cannot generate the equal-power pair: %v", m.Name, err)
		}
	}
}

// TestRealtimeMethodCovariance runs the real-time combination under a
// conventional coloring and checks the block covariance still matches the
// target — and that the Sorooshyari–Daut backend's unit-variance assumption
// produces its documented covariance bias instead.
func TestRealtimeMethodCovariance(t *testing.T) {
	cov := goldenCovariance()
	measure := func(method string) (float64, *Stream) {
		stream, err := NewStream(RealTimeConfig{
			Covariance: cov, IDFTPoints: 2048, NormalizedDoppler: 0.05,
			Seed: 211, Method: method,
		})
		if err != nil {
			t.Fatalf("NewStream(%s): %v", method, err)
		}
		cur, err := stream.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		n := stream.N()
		acc := make([][]complex128, n)
		for i := range acc {
			acc[i] = make([]complex128, n)
		}
		var block Block
		const blocks = 24
		for b := 0; b < blocks; b++ {
			if err := cur.Next(&block); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var sum complex128
					for l := range block.Gaussian[i] {
						sum += block.Gaussian[i][l] * cmplx.Conj(block.Gaussian[j][l])
					}
					acc[i][j] += sum / complex(float64(blocks*stream.BlockLength()), 0)
				}
			}
		}
		worst := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := cmplx.Abs(acc[i][j] - cov[i][j]); d > worst {
					worst = d
				}
			}
		}
		return worst, stream
	}

	for _, method := range []string{MethodGeneralized, MethodBeaulieuMerani, MethodNatarajan, MethodSalzWinters} {
		if worst, _ := measure(method); worst > 0.06 {
			t.Errorf("%s realtime covariance misses the target by %g", method, worst)
		}
	}

	// Sorooshyari–Daut assumes σ²_g = 1 while the Doppler filter's true
	// Eq. (19) variance is far smaller, so the served covariance is biased —
	// the defect Section 5 corrects.
	worst, stream := measure(MethodSorooshyariDaut)
	if stream.SampleVariance() != 1 {
		t.Errorf("sorooshyari_daut sample variance = %g, want the assumed 1", stream.SampleVariance())
	}
	if worst < 0.2 {
		t.Errorf("sorooshyari_daut realtime bias = %g, want the documented defect (>= 0.2)", worst)
	}
}
