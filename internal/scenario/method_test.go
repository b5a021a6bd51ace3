package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// pairSpec is a small batched scenario on the equal-power real pair.
func pairSpec(method string, assertions []AssertionSpec) *Spec {
	return &Spec{
		Name:       "method-test",
		Seed:       17,
		Model:      ModelSpec{Type: ModelConstant, N: 2, Rho: 0.6},
		Generation: GenerationSpec{Mode: ModeBatched, Draws: 20000, Method: method},
		Assertions: assertions,
	}
}

func TestGenerationMethodRunsBaselineBackend(t *testing.T) {
	for _, method := range []string{"", "generalized", "ertel_reed", "beaulieu_merani", "salz_winters"} {
		spec := pairSpec(method, []AssertionSpec{
			{Type: AssertCovariance, MaxAbsError: 0.05},
			{Type: AssertEnvelopeMoments, MeanTolerance: 0.03, VarianceTolerance: 0.06},
			{Type: AssertIntoIdentity},
			{Type: AssertParallelIdentity, Workers: 3},
		})
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("Run(method=%q): %v", method, err)
		}
		if !res.Passed {
			t.Errorf("method %q scenario failed:\n%s", method, NewReport([]*Result{res}).Markdown())
		}
		want := method
		if want == "" {
			want = "generalized"
		}
		if res.Method != want {
			t.Errorf("Result.Method = %q, want %q", res.Method, want)
		}
	}
}

func TestGenerationMethodSurfacesTypedRejection(t *testing.T) {
	spec := pairSpec("ertel_reed", []AssertionSpec{{Type: AssertCovariance, MaxAbsError: 0.05}})
	spec.Model = ModelSpec{Type: ModelConstant, N: 3, Rho: 0.5}
	if _, err := Run(spec); err == nil {
		t.Errorf("ertel_reed on N=3 did not surface a run error")
	}
}

func TestComparisonGatePassesAndTabulates(t *testing.T) {
	spec := pairSpec("", []AssertionSpec{{
		Type: AssertComparison,
		Methods: []MethodExpect{
			{Method: "generalized", MaxAbsError: 0.05, MeanTolerance: 0.03, VarianceTolerance: 0.06},
			{Method: "ertel_reed", MaxAbsError: 0.05},
			{Method: "salz_winters", MaxAbsError: 0.05},
		},
	}})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		t.Fatalf("comparison scenario failed:\n%s", NewReport([]*Result{res}).Markdown())
	}
	if len(res.Comparison) != 3 {
		t.Fatalf("comparison table has %d rows, want 3", len(res.Comparison))
	}
	for _, row := range res.Comparison {
		if row.Outcome != OutcomeOK {
			t.Errorf("row %s outcome = %s, want ok", row.Method, row.Outcome)
		}
		if row.CovMaxAbsError <= 0 || row.CovMaxAbsError > 0.05 {
			t.Errorf("row %s cov error = %g", row.Method, row.CovMaxAbsError)
		}
	}
	md := NewReport([]*Result{res}).Markdown()
	if !strings.Contains(md, "Method comparison") || !strings.Contains(md, "ertel_reed") {
		t.Errorf("markdown report lacks the comparison table:\n%s", md)
	}
}

func TestComparisonGateClassifiesExpectedFailures(t *testing.T) {
	spec := &Spec{
		Name:       "failure-classes",
		Seed:       5,
		Model:      ModelSpec{Type: ModelConstant, N: 3, Rho: -0.9},
		Generation: GenerationSpec{Mode: ModeBatched, Draws: 5000},
		Assertions: []AssertionSpec{{
			Type: AssertComparison,
			Methods: []MethodExpect{
				{Method: "beaulieu_merani", Outcome: OutcomeSetupFailed},
				{Method: "ertel_reed", Outcome: OutcomeUnsupported},
				{Method: "sorooshyari_daut", MinAbsError: 0.1},
			},
		}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed {
		t.Fatalf("expected-failure scenario failed:\n%s", NewReport([]*Result{res}).Markdown())
	}
	if res.Comparison[0].Outcome != OutcomeSetupFailed || res.Comparison[0].Err == "" {
		t.Errorf("beaulieu row = %+v", res.Comparison[0])
	}
	if res.Comparison[1].Outcome != OutcomeUnsupported {
		t.Errorf("ertel_reed row = %+v", res.Comparison[1])
	}
}

func TestComparisonGateFailsOnWrongExpectation(t *testing.T) {
	// Expecting beaulieu_merani to succeed on an indefinite target must fail
	// the gate (not error the run): the outcome row observes 0 != 1.
	spec := &Spec{
		Name:       "wrong-expectation",
		Seed:       5,
		Model:      ModelSpec{Type: ModelConstant, N: 3, Rho: -0.9},
		Generation: GenerationSpec{Mode: ModeBatched, Draws: 2000},
		Assertions: []AssertionSpec{{
			Type: AssertComparison,
			Methods: []MethodExpect{
				{Method: "beaulieu_merani", MaxAbsError: 0.05},
				{Method: "ertel_reed", Outcome: OutcomeUnsupported},
			},
		}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Passed {
		t.Errorf("wrong expectation passed the gate")
	}
}

func TestComparisonRerunIsByteIdentical(t *testing.T) {
	spec := func() *Spec {
		return pairSpec("", []AssertionSpec{{
			Type: AssertComparison,
			Methods: []MethodExpect{
				{Method: "generalized", MaxAbsError: 0.05},
				{Method: "ertel_reed", MaxAbsError: 0.05},
			},
		}})
	}
	a, err := Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := NewReport([]*Result{a}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := NewReport([]*Result{b}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("comparison rerun JSON differs")
	}
}

func TestComparisonSpecValidation(t *testing.T) {
	base := func() *Spec {
		return pairSpec("", []AssertionSpec{{
			Type: AssertComparison,
			Methods: []MethodExpect{
				{Method: "generalized", MaxAbsError: 0.05},
				{Method: "ertel_reed", MaxAbsError: 0.05},
			},
		}})
	}

	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid comparison spec rejected: %v", err)
	}

	oneRow := base()
	oneRow.Assertions[0].Methods = oneRow.Assertions[0].Methods[:1]
	if err := oneRow.Validate(); err == nil {
		t.Errorf("single-row comparison accepted")
	}

	dup := base()
	dup.Assertions[0].Methods[1] = dup.Assertions[0].Methods[0]
	if err := dup.Validate(); err == nil {
		t.Errorf("duplicate method rows accepted")
	}

	unknown := base()
	unknown.Assertions[0].Methods[1].Method = "nope"
	if err := unknown.Validate(); err == nil {
		t.Errorf("unknown method accepted")
	}

	vacuous := base()
	vacuous.Assertions[0].Methods[1] = MethodExpect{Method: "ertel_reed"}
	if err := vacuous.Validate(); err == nil {
		t.Errorf("vacuous ok row accepted")
	}

	boundsOnFailure := base()
	boundsOnFailure.Assertions[0].Methods[1] = MethodExpect{Method: "ertel_reed", Outcome: OutcomeUnsupported, MaxAbsError: 0.1}
	if err := boundsOnFailure.Validate(); err == nil {
		t.Errorf("bounds on a failure row accepted")
	}

	realtime := base()
	realtime.Generation = GenerationSpec{Mode: ModeRealtime, Blocks: 1}
	if err := realtime.Validate(); err == nil {
		t.Errorf("realtime comparison accepted")
	}

	badMethod := base()
	badMethod.Generation.Method = "nope"
	if err := badMethod.Validate(); err == nil {
		t.Errorf("unknown generation method accepted")
	}
}
