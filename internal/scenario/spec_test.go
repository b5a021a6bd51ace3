package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// fullSpec exercises every spec section: model, generation, and a mix of
// assertion types with non-default knobs.
func fullSpec() *Spec {
	maxClamped := 2
	return &Spec{
		Name:        "round-trip",
		Description: "exercises every field",
		Tags:        []string{"test", "ofdm"},
		Seed:        99,
		Model: ModelSpec{
			Type:             ModelSpectral,
			N:                4,
			Power:            2,
			CarrierSpacingHz: 200e3,
			MaxDopplerHz:     50,
			RMSDelaySpreadS:  1e-6,
			DelayStepS:       1e-3,
		},
		Generation: GenerationSpec{Mode: ModeBatched, Draws: 1000, Workers: 4},
		Assertions: []AssertionSpec{
			{Type: AssertCovariance, MaxAbsError: 0.05, MaxRelFrobenius: 0.1},
			{Type: AssertEnvelopeMoments, Envelope: 3, MeanTolerance: 0.02, VarianceTolerance: 0.05},
			{Type: AssertRayleighChiSquare, MinPValue: 0.01, Bins: 25},
			{Type: AssertPSDForcing, MaxClamped: &maxClamped, MaxFrobeniusError: 0.5},
			{Type: AssertParallelIdentity, Workers: 4, Units: 64},
		},
	}
}

func TestParseRoundTrip(t *testing.T) {
	want := fullSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"name":"x","seed":1,"model":{"type":"eq22"},"generation":{"mode":"snapshot","draws":10},
		  "assertions":[{"type":"into_identity"}],"bogus":1}`,
		`{"name":"x","seed":1,"model":{"type":"eq22","rho_typo":0.5},"generation":{"mode":"snapshot","draws":10},
		  "assertions":[{"type":"into_identity"}]}`,
		`{"name":"x","seed":1,"model":{"type":"eq22"},"generation":{"mode":"snapshot","draws":10},
		  "assertions":[{"type":"covariance","max_abs_err":0.1}]}`,
		// The unit-variance defect of [6] is the sorooshyari_daut method,
		// not a generation knob.
		`{"name":"x","seed":1,"model":{"type":"eq22"},"generation":{"mode":"realtime","blocks":1,"assume_unit_variance":true},
		  "assertions":[{"type":"covariance_defect","min_abs_error":0.2}]}`,
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: unknown field error = %v, want ErrBadSpec", i, err)
		}
	}
}

func TestParseRejectsInvalidSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown model": `{"name":"x","seed":1,"model":{"type":"mystery"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"into_identity"}]}`,
		"unknown mode": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"warp","draws":10},"assertions":[{"type":"into_identity"}]}`,
		"unknown assertion": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"vibes"}]}`,
		"no assertions": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[]}`,
		"no name": `{"seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"into_identity"}]}`,
		"covariance without tolerance": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"covariance"}]}`,
		"autocorrelation in snapshot mode": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"autocorrelation","tolerance":0.1}]}`,
		"parallel identity in snapshot mode": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"parallel_identity"}]}`,
		"snapshot mode with workers": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10,"workers":4},"assertions":[{"type":"into_identity"}]}`,
		"realtime with draws": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"realtime","blocks":2,"draws":10},"assertions":[{"type":"into_identity"}]}`,
		"ragged explicit covariance": `{"name":"x","seed":1,
			"model":{"type":"explicit","covariance":[[[1,0],[0,0]],[[0,0]]]},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"into_identity"}]}`,
		"snapshot mode with input variance": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10,"input_variance":0.5},"assertions":[{"type":"into_identity"}]}`,
		"rayleigh ks in realtime mode": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"realtime","blocks":2},"assertions":[{"type":"rayleigh_ks","min_p_value":0.01}]}`,
		"rayleigh chisquare in realtime mode": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"realtime","blocks":2},"assertions":[{"type":"rayleigh_chisquare","min_p_value":0.01}]}`,
		"data after the spec": `{"name":"x","seed":1,"model":{"type":"eq22"},
			"generation":{"mode":"snapshot","draws":10},"assertions":[{"type":"into_identity"}]} {"name": "second"}`,
	}
	for name, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadSpec", name, err)
		}
	}
}

func TestComplexJSON(t *testing.T) {
	var c Complex
	if err := json.Unmarshal([]byte(`[1.5, -2.5]`), &c); err != nil {
		t.Fatalf("pair: %v", err)
	}
	if complex128(c) != 1.5-2.5i {
		t.Errorf("pair = %v, want (1.5-2.5i)", complex128(c))
	}
	if err := json.Unmarshal([]byte(`0.25`), &c); err != nil {
		t.Fatalf("scalar: %v", err)
	}
	if complex128(c) != 0.25 {
		t.Errorf("scalar = %v, want 0.25", complex128(c))
	}
	if err := json.Unmarshal([]byte(`"nope"`), &c); err == nil {
		t.Error("string accepted as complex")
	}
	out, err := json.Marshal(Complex(3 + 4i))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(out) != "[3,4]" {
		t.Errorf("marshal = %s, want [3,4]", out)
	}
}
