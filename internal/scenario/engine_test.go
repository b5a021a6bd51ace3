package scenario

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chanspec"
)

// smallSnapshotSpec is a fast-running eq22 snapshot scenario with loose
// statistical tolerances.
func smallSnapshotSpec() *Spec {
	return &Spec{
		Name:       "small-snapshot",
		Seed:       7,
		Model:      ModelSpec{Type: ModelEq22},
		Generation: GenerationSpec{Mode: ModeSnapshot, Draws: 8000},
		Assertions: []AssertionSpec{
			{Type: AssertCovariance, MaxAbsError: 0.1, MaxRelFrobenius: 0.1},
			{Type: AssertEnvelopeMoments, MeanTolerance: 0.05, VarianceTolerance: 0.1},
			{Type: AssertRayleighKS, MinPValue: 0.001},
			{Type: AssertIntoIdentity},
		},
	}
}

func TestRunPassesSmallScenario(t *testing.T) {
	res, err := Run(smallSnapshotSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed: %+v", res)
	}
	if res.N != 3 || res.Samples != 8000 || len(res.Gates) != 4 {
		t.Errorf("result shape: N=%d Samples=%d gates=%d", res.N, res.Samples, len(res.Gates))
	}
}

func TestToleranceViolationFailsGate(t *testing.T) {
	spec := smallSnapshotSpec()
	spec.Assertions = []AssertionSpec{
		{Type: AssertCovariance, MaxAbsError: 1e-9},
		{Type: AssertEnvelopeMoments, MeanTolerance: 0.05},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Passed {
		t.Fatal("impossible tolerance passed")
	}
	if res.Gates[0].Passed {
		t.Error("covariance gate passed at 1e-9 tolerance")
	}
	if !res.Gates[1].Passed {
		t.Error("loose moment gate failed")
	}
	for _, c := range res.Gates[0].Checks {
		if c.Passed {
			t.Errorf("check %q passed at impossible tolerance", c.Name)
		}
	}
}

// TestDeterministicRerun is the invariance gate of the harness itself: the
// same spec must produce a byte-identical result, because CI diffs the
// artifacts across reruns.
func TestDeterministicRerun(t *testing.T) {
	specs := []*Spec{
		smallSnapshotSpec(),
		{
			Name:       "small-realtime",
			Seed:       13,
			Model:      ModelSpec{Type: ModelEq22},
			Generation: GenerationSpec{Mode: ModeRealtime, Blocks: 3, IDFTPoints: 512},
			Assertions: []AssertionSpec{
				{Type: AssertCovariance, MaxAbsError: 0.5},
				{Type: AssertAutocorrelation, MaxLag: 20, Tolerance: 0.5},
			},
		},
	}
	for _, spec := range specs {
		first, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: first run: %v", spec.Name, err)
		}
		second, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: second run: %v", spec.Name, err)
		}
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(second)
		if string(a) != string(b) {
			t.Errorf("%s: rerun not byte-identical:\n%s\n%s", spec.Name, a, b)
		}
	}
}

func TestBatchedIdentities(t *testing.T) {
	spec := &Spec{
		Name:       "batched-identities",
		Seed:       17,
		Model:      ModelSpec{Type: ModelExponential, N: 8, Rho: 0.6},
		Generation: GenerationSpec{Mode: ModeBatched, Draws: 4000, Workers: 4},
		Assertions: []AssertionSpec{
			{Type: AssertParallelIdentity, Workers: 4},
			{Type: AssertParallelIdentity, Workers: 7, Units: 500},
			{Type: AssertIntoIdentity, Units: 64},
			{Type: AssertCovariance, MaxRelFrobenius: 0.2},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		t.Fatalf("batched identity scenario failed: %+v", res.Gates)
	}
}

// TestRealtimeWorkersCollection pins the realtime collection path: the
// engine generates through GenerateBlocksAt, whose output is worker-count
// invariant, so gate observations must be identical for every workers
// setting, the inline workers = 1 included.
func TestRealtimeWorkersCollection(t *testing.T) {
	build := func(workers int) *Spec {
		return &Spec{
			Name:  "realtime-workers",
			Seed:  29,
			Model: ModelSpec{Type: ModelEq22},
			Generation: GenerationSpec{Mode: ModeRealtime, Blocks: 4,
				IDFTPoints: 256, Workers: workers},
			Assertions: []AssertionSpec{
				{Type: AssertCovariance, MaxAbsError: 0.5},
				{Type: AssertAutocorrelation, MaxLag: 20, Tolerance: 0.5},
			},
		}
	}
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		res, err := Run(build(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Passed {
			t.Fatalf("workers=%d scenario failed: %+v", workers, res.Gates)
		}
		got, _ := json.Marshal(res.Gates)
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("worker count leaked into gate observations:\n%s\n%s", want, got)
		}
	}
}

func TestRealtimeIdentities(t *testing.T) {
	spec := &Spec{
		Name:       "realtime-identities",
		Seed:       19,
		Model:      ModelSpec{Type: ModelEq22},
		Generation: GenerationSpec{Mode: ModeRealtime, Blocks: 4, IDFTPoints: 256},
		Assertions: []AssertionSpec{
			{Type: AssertIntoIdentity},
			{Type: AssertParallelIdentity, Workers: 3, Units: 4},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		t.Fatalf("realtime identity scenario failed: %+v", res.Gates)
	}
}

// TestIntoIdentityUnderFadingModels: into_identity builds both twins from
// the spec's fading model in every mode, so snapshot and batched specs of the
// per-sample models parse and pass it.
func TestIntoIdentityUnderFadingModels(t *testing.T) {
	cases := map[string]string{
		"batched nakagami_m": `{"name":"nakagami-into","seed":3,
			"model":{"type":"eq22","fading":"nakagami_m","params":{"m":2.5}},
			"generation":{"mode":"batched","draws":512,"workers":2},
			"assertions":[{"type":"into_identity","units":128}]}`,
		"snapshot suzuki": `{"name":"suzuki-into","seed":5,
			"model":{"type":"identity","n":2,"fading":"suzuki","params":{"shadow_sigma_db":4,"shadow_coherence":64}},
			"generation":{"mode":"snapshot","draws":256},
			"assertions":[{"type":"into_identity"}]}`,
		"snapshot rician": `{"name":"rician-into","seed":7,
			"model":{"type":"eq22","fading":"rician","params":{"k_factor":4}},
			"generation":{"mode":"snapshot","draws":256},
			"assertions":[{"type":"into_identity"}]}`,
	}
	for name, c := range cases {
		spec, err := Parse([]byte(c))
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if !res.Passed {
			t.Errorf("%s: into_identity failed: %+v", name, res.Gates)
		}
	}
}

func TestPSDForcingGate(t *testing.T) {
	maxClamped := 0
	spec := &Spec{
		Name:       "nonpsd",
		Seed:       23,
		Model:      ModelSpec{Type: ModelConstant, N: 3, Rho: -0.9},
		Generation: GenerationSpec{Mode: ModeSnapshot, Draws: 2000},
		Assertions: []AssertionSpec{
			{Type: AssertPSDForcing, MinClamped: 1, ExpectCholeskyFailure: true, BeatsEpsilonClamp: true},
			// A PSD demand on an indefinite input must fail its gate.
			{Type: AssertPSDForcing, MaxClamped: &maxClamped},
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Gates[0].Passed {
		t.Errorf("forcing diagnostics gate failed: %+v", res.Gates[0])
	}
	if res.Gates[1].Passed {
		t.Error("max_clamped=0 gate passed on an indefinite matrix")
	}
	if res.ClampedEigenvalues < 1 {
		t.Errorf("ClampedEigenvalues = %d, want >= 1", res.ClampedEigenvalues)
	}
}

func TestRunRejectsEnvelopeOutOfRange(t *testing.T) {
	spec := smallSnapshotSpec()
	spec.Assertions = []AssertionSpec{
		{Type: AssertEnvelopeMoments, Envelope: 5, MeanTolerance: 0.05},
	}
	if _, err := Run(spec); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("out-of-range envelope: err = %v, want ErrBadSpec", err)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	spec := smallSnapshotSpec()
	spec.Generation.Mode = "warp"
	if _, err := Run(spec); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("invalid mode: err = %v, want ErrBadSpec", err)
	}
}

func TestModelBuilders(t *testing.T) {
	cases := []ModelSpec{
		{Type: ModelEq22},
		{Type: ModelIdentity, N: 4},
		{Type: ModelExponential, N: 5, Rho: 0.5, PhaseRad: 0.3},
		{Type: ModelConstant, N: 4, Rho: 0.4},
		{Type: ModelSpectral, N: 3, CarrierSpacingHz: 2e5, MaxDopplerHz: 50, RMSDelaySpreadS: 1e-6, DelayStepS: 1e-3},
		{Type: ModelSpatial, N: 3, SpacingWavelengths: 0.5, AngularSpreadRad: 0.3, MeanAngleRad: 0.1},
		{Type: ModelExplicit, Covariance: [][]Complex{{1, 0.5}, {0.5, 1}}},
	}
	for _, m := range cases {
		k, err := m.Build()
		if err != nil {
			t.Errorf("%s: Build: %v", m.Type, err)
			continue
		}
		if !k.IsSquare() || k.Rows() == 0 {
			t.Errorf("%s: bad matrix %dx%d", m.Type, k.Rows(), k.Cols())
		}
		if !k.IsHermitian(1e-12) {
			t.Errorf("%s: matrix not Hermitian", m.Type)
		}
	}
}

// TestSnapshotAndBatchedModesAreOneSequence: snapshot mode (one GenerateInto
// per draw) and batched mode (one GenerateBatchInto, at 1 and 4 workers)
// read one snapshot sequence, so a committed snapshot spec gives the same
// Result in either mode apart from Mode itself. eq22-snapshot's 60,000 draws
// end in a ragged chunk; exponential-phase-complex runs the complex
// coloring.
func TestSnapshotAndBatchedModesAreOneSequence(t *testing.T) {
	for _, name := range []string{"eq22-snapshot", "exponential-phase-complex"} {
		path := filepath.Join("..", "..", "scenarios", name+".json")
		spec, err := chanspec.LoadFile(path, Parse)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		want, err := Run(spec)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			spec.Generation.Mode = ModeBatched
			spec.Generation.Workers = workers
			got, err := Run(spec)
			if err != nil {
				t.Fatalf("Run(%s, batched, workers=%d): %v", name, workers, err)
			}
			got.Mode = want.Mode
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: batched mode at %d workers differs from snapshot mode:\n got %+v\nwant %+v", name, workers, got, want)
			}
		}
	}
}
