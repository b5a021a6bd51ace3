package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestSessionMethodThreadsThroughService(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Window: 2})

	// Default method reads back normalized.
	info := createSession(t, ts.URL, testSpec)
	if info.Method != "generalized" {
		t.Errorf("default session method = %q, want generalized", info.Method)
	}

	// A conventional method is accepted when the model is in its vocabulary,
	// echoed in the session metadata, and streams deterministically.
	spec := `{
		"model": {"type": "spatial", "n": 3, "spacing_wavelengths": 1, "angular_spread_rad": 0.1745},
		"method": "beaulieu_merani",
		"seed": 4242,
		"blocks": 4,
		"idft_points": 64
	}`
	info = createSession(t, ts.URL, spec)
	if info.Method != "beaulieu_merani" {
		t.Errorf("session method = %q, want beaulieu_merani", info.Method)
	}
	if !strings.Contains(string(info.Spec), `"method":"beaulieu_merani"`) {
		t.Errorf("canonical spec does not carry the method: %s", info.Spec)
	}
	status, a := fetchStream(t, ts.URL, info.ID, "?format=bin&gaussian=1")
	if status != http.StatusOK || len(a) == 0 {
		t.Fatalf("stream status %d, %d bytes", status, len(a))
	}
	info2 := createSession(t, ts.URL, spec)
	_, b := fetchStream(t, ts.URL, info2.ID, "?format=bin&gaussian=1")
	if string(a) != string(b) {
		t.Errorf("equal specs with a conventional method produced different streams")
	}
}

// TestSessionInfoReportsOnlyAppliedForcing: session info echoes the PSD
// forcing the serving method applied to the requested covariance.
// Sorooshyari–Daut ε-clamps the indefinite target itself, so its session
// reports none; the generalized method reports its zero clamp.
func TestSessionInfoReportsOnlyAppliedForcing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Window: 2})
	spec := func(method string) string {
		return `{
			"model": {"type": "explicit", "covariance": [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]},
			"method": "` + method + `",
			"seed": 1,
			"blocks": 2,
			"idft_points": 64
		}`
	}
	info := createSession(t, ts.URL, spec("sorooshyari_daut"))
	if info.ClampedEigenvalues != 0 || info.ForcingError != 0 {
		t.Errorf("sorooshyari_daut session reports forcing: %d clamped, error %g; want 0, 0",
			info.ClampedEigenvalues, info.ForcingError)
	}
	info = createSession(t, ts.URL, spec("generalized"))
	if info.ClampedEigenvalues != 1 || info.ForcingError <= 0 {
		t.Errorf("generalized session reports %d clamped, error %g; want 1 clamped, positive error",
			info.ClampedEigenvalues, info.ForcingError)
	}
}

func TestSessionMethodRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Window: 2})

	post := func(spec string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Unknown method name: spec validation rejects it.
	status, body := post(`{"model": {"type": "eq22"}, "method": "nope", "seed": 1, "blocks": 2, "idft_points": 64}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown generation method") {
		t.Errorf("unknown method: status %d body %s", status, body)
	}

	// In-vocabulary method, out-of-vocabulary model: the method's documented
	// rejection surfaces at session creation.
	status, body = post(`{"model": {"type": "eq22"}, "method": "ertel_reed", "seed": 1, "blocks": 2, "idft_points": 64}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "not supported") {
		t.Errorf("ertel_reed on eq22: status %d body %s", status, body)
	}
}

func TestMethodsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatalf("GET /v1/methods: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Methods []struct {
			Name        string `json:"name"`
			Citation    string `json:"citation"`
			Constraints string `json:"constraints"`
		} `json:"methods"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Methods) != 6 {
		t.Fatalf("catalog has %d methods, want 6", len(out.Methods))
	}
	if out.Methods[0].Name != "generalized" || out.Methods[0].Citation == "" {
		t.Errorf("catalog head = %+v", out.Methods[0])
	}
}
