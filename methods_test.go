package rayleigh

import (
	"errors"
	"math/cmplx"
	"reflect"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/stats"
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

// TestEveryBackendMatchesTargetOnGoldenMatrix: every N = 3-capable method
// built through New reports N = 3, and the stats package's sample covariance
// of its batched Gaussian draws matches the Eq. (23) target.
func TestEveryBackendMatchesTargetOnGoldenMatrix(t *testing.T) {
	golden := cmplxmat.MustFromRows(goldenCovariance())
	for _, method := range []string{
		MethodGeneralized, MethodSalzWinters, MethodBeaulieuMerani,
		MethodNatarajan, MethodSorooshyariDaut,
	} {
		gen, err := New(Config{Method: method, Covariance: goldenCovariance(), Seed: 41})
		if err != nil {
			t.Fatalf("New(%s): %v", method, err)
		}
		if gen.N() != 3 {
			t.Errorf("%s N = %d, want 3", method, gen.N())
		}
		const draws = 60000
		dst := make([]Snapshot, draws)
		if err := gen.SnapshotsInto(dst); err != nil {
			t.Fatalf("%s SnapshotsInto: %v", method, err)
		}
		samples := make([][]complex128, draws)
		for i := range dst {
			samples[i] = dst[i].Gaussian
		}
		cov, err := stats.SampleCovariance(samples)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := stats.CompareCovariance(cov, golden)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.MaxAbs > 0.04 {
			t.Errorf("%s misses the golden covariance by %g", method, cmp.MaxAbs)
		}
	}
}

// TestSnapshotsDeterministicPerMethod: two generators built from one Config
// draw the same snapshots under every method.
func TestSnapshotsDeterministicPerMethod(t *testing.T) {
	for _, m := range Methods() {
		cfg := Config{Method: m.Name, Covariance: goldenCovariance(), Seed: 7}
		if m.Name == MethodErtelReed {
			cfg.Covariance = [][]complex128{{1, 0.6}, {0.6, 1}}
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", m.Name, err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", m.Name, err)
		}
		for i := 0; i < 64; i++ {
			if sa, sb := a.Snapshot(), b.Snapshot(); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%s twin generators diverge at draw %d", m.Name, i)
			}
		}
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

// TestConstructionFailureClasses: New rejects a target outside a method's
// vocabulary or numerical reach with that method's typed error, builds the
// generalized engine and the ε-clamp of Sorooshyari–Daut on the indefinite
// target, and rejects an unknown method name as a spec error.
func TestConstructionFailureClasses(t *testing.T) {
	// Ertel–Reed cannot express N = 3: out of vocabulary.
	if _, err := New(Config{Method: MethodErtelReed, Covariance: goldenCovariance(), Seed: 1}); !errors.Is(err, ErrMethodUnsupported) {
		t.Errorf("ertel_reed on N=3 error = %v, want ErrMethodUnsupported", err)
	}
	// Salz–Winters requires equal powers.
	unequal := [][]complex128{{2, 0.5}, {0.5, 1}}
	if _, err := New(Config{Method: MethodSalzWinters, Covariance: unequal, Seed: 1}); !errors.Is(err, ErrMethodUnsupported) {
		t.Errorf("salz_winters on unequal powers error = %v, want ErrMethodUnsupported", err)
	}
	// Cholesky-based methods reject indefinite targets numerically.
	for _, method := range []string{MethodBeaulieuMerani, MethodNatarajan} {
		if _, err := New(Config{Method: method, Covariance: indefiniteCovariance(), Seed: 1}); !errors.Is(err, ErrMethodSetup) {
			t.Errorf("%s on indefinite error = %v, want ErrMethodSetup", method, err)
		}
	}
	// The generalized engine and the ε-clamp both accept the indefinite
	// target.
	for _, method := range []string{MethodGeneralized, MethodSorooshyariDaut} {
		if _, err := New(Config{Method: method, Covariance: indefiniteCovariance(), Seed: 1}); err != nil {
			t.Errorf("%s on indefinite: %v", method, err)
		}
	}
	// Unknown names are a spec error.
	if _, err := New(Config{Method: "nope", Covariance: goldenCovariance(), Seed: 1}); !errors.Is(err, chanspec.ErrBadSpec) {
		t.Errorf("unknown method error = %v, want ErrBadSpec", err)
	}
}

// TestDiagnosticsOnlyForGeneralized: on the indefinite target the generalized
// snapshot generator reports its zero clamp, while Sorooshyari–Daut's, whose
// ε-clamp is part of the method, reports the zero value.
func TestDiagnosticsOnlyForGeneralized(t *testing.T) {
	gen, err := New(Config{Method: MethodGeneralized, Covariance: indefiniteCovariance(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := gen.Diagnostics(); d.ClampedEigenvalues == 0 {
		t.Errorf("generalized diagnostics = %+v, want clamped eigenvalues", d)
	}
	eps, err := New(Config{Method: MethodSorooshyariDaut, Covariance: indefiniteCovariance(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := eps.Diagnostics(); !reflect.DeepEqual(d, Diagnostics{}) {
		t.Errorf("sorooshyari_daut diagnostics = %+v, want the zero value", d)
	}
}

// TestColoring pins methodColoring, the one resolution of a method name
// into the engine's coloring knobs.
func TestColoring(t *testing.T) {
	golden := cmplxmat.MustFromRows(goldenCovariance())
	// Generalized: no override.
	l, unit, err := methodColoring(MethodGeneralized, golden)
	if err != nil || l != nil || unit {
		t.Errorf("generalized override = (%v, %v, %v), want (nil, false, nil)", l, unit, err)
	}
	// Cholesky: L·Lᴴ = K, no unit-variance assumption.
	l, unit, err = methodColoring(MethodBeaulieuMerani, golden)
	if err != nil || unit {
		t.Fatalf("beaulieu override: %v %v", unit, err)
	}
	got := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
	if d := cmplxmat.FrobeniusDistance(got, golden); d > 1e-9 {
		t.Errorf("cholesky override reconstructs covariance with error %g", d)
	}
	// Sorooshyari–Daut carries the unit-variance defect.
	_, unit, err = methodColoring(MethodSorooshyariDaut, golden)
	if err != nil || !unit {
		t.Errorf("sorooshyari override unit = %v (%v), want true", unit, err)
	}
	// Failure classes propagate.
	if _, _, err := methodColoring(MethodBeaulieuMerani, cmplxmat.MustFromRows(indefiniteCovariance())); !errors.Is(err, ErrMethodSetup) {
		t.Errorf("beaulieu on indefinite error = %v, want ErrMethodSetup", err)
	}
	if _, _, err := methodColoring(MethodErtelReed, golden); !errors.Is(err, ErrMethodUnsupported) {
		t.Errorf("ertel_reed on N=3 error = %v, want ErrMethodUnsupported", err)
	}
	// The covariance scale window: [[1, 2], [2, 1]]·s at max |K_ij| = 2s on
	// either edge, and the all-zero target, are accepted; just outside is a
	// spec error.
	pair := func(s float64) *cmplxmat.Matrix {
		return cmplxmat.MustFromRows([][]complex128{{complex(s, 0), complex(2*s, 0)}, {complex(2*s, 0), complex(s, 0)}})
	}
	for _, k := range []*cmplxmat.Matrix{cmplxmat.New(2, 2), pair(0.5e-100), pair(0.5e100)} {
		if _, _, err := methodColoring(MethodGeneralized, k); err != nil {
			t.Errorf("in-window target %v: %v", k, err)
		}
	}
	for _, k := range []*cmplxmat.Matrix{pair(0.4e-100), pair(0.6e100)} {
		if _, _, err := methodColoring(MethodGeneralized, k); !errors.Is(err, chanspec.ErrBadSpec) {
			t.Errorf("out-of-window target %v error = %v, want ErrBadSpec", k, err)
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
