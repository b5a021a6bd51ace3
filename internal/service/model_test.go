package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/chanspec"
)

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Models []struct {
			Name        string `json:"name"`
			Envelope    string `json:"envelope"`
			Constraints string `json:"constraints"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Models) != 5 {
		t.Fatalf("catalog has %d models, want 5", len(out.Models))
	}
	if out.Models[0].Name != "rayleigh" || out.Models[0].Envelope == "" {
		t.Errorf("catalog head = %+v", out.Models[0])
	}
}

func TestSessionFadingThreadsThroughService(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Default fading reads back normalized.
	info := createSession(t, ts.URL, testSpec)
	if info.Fading != "rayleigh" {
		t.Errorf("default session fading = %q, want rayleigh", info.Fading)
	}

	// A Rician session is accepted, echoed in the metadata, and streams
	// deterministically: equal specs produce byte-identical streams.
	spec := `{
		"model": {"type": "eq22", "fading": "rician", "params": {"k_factor": 3.5, "los_phase_rad": 0.2}},
		"seed": 515,
		"blocks": 4,
		"idft_points": 64
	}`
	info = createSession(t, ts.URL, spec)
	if info.Fading != "rician" {
		t.Errorf("session fading = %q, want rician", info.Fading)
	}
	if !strings.Contains(string(info.Spec), `"fading":"rician"`) {
		t.Errorf("canonical spec does not carry the fading model: %s", info.Spec)
	}
	status, a := fetchStream(t, ts.URL, info.ID, "?format=bin&gaussian=1")
	if status != http.StatusOK || len(a) == 0 {
		t.Fatalf("stream status %d, %d bytes", status, len(a))
	}
	info2 := createSession(t, ts.URL, spec)
	_, b := fetchStream(t, ts.URL, info2.ID, "?format=bin&gaussian=1")
	if string(a) != string(b) {
		t.Errorf("equal Rician specs produced different streams")
	}

	// A nonstationary trajectory session streams and resumes mid-trajectory:
	// ?from=2 reproduces the tail bytes of a from-0 stream.
	nsSpec := `{
		"model": {"type": "identity", "n": 1, "fading": "nonstationary_doppler",
			"params": {"segments": [
				{"blocks": 2, "normalized_doppler": 0.02},
				{"blocks": 2, "normalized_doppler": 0.1}
			]}},
		"seed": 616,
		"blocks": 4,
		"idft_points": 64
	}`
	nsInfo := createSession(t, ts.URL, nsSpec)
	if nsInfo.Fading != "nonstationary_doppler" {
		t.Errorf("session fading = %q, want nonstationary_doppler", nsInfo.Fading)
	}
	_, full := fetchStream(t, ts.URL, nsInfo.ID, "?format=bin&gaussian=1")
	_, tail := fetchStream(t, ts.URL, nsInfo.ID, "?format=bin&gaussian=1&from=2")
	if len(tail) == 0 || len(tail)*2 != len(full) {
		t.Fatalf("resume sizes: full %d bytes, tail %d", len(full), len(tail))
	}
	if string(full[len(full)-len(tail):]) != string(tail) {
		t.Errorf("mid-trajectory resume is not byte-identical to the from-0 tail")
	}
}

func TestSessionFadingRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})

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

	// Out-of-vocabulary fading model: 400 with the vocabulary in the message.
	status, body := post(`{"model": {"type": "eq22", "fading": "weibull"}, "seed": 1, "blocks": 2, "idft_points": 64}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "unknown fading model") {
		t.Errorf("unknown fading: status %d body %s", status, body)
	}

	// In-vocabulary model with missing parameters.
	status, body = post(`{"model": {"type": "eq22", "fading": "rician"}, "seed": 1, "blocks": 2, "idft_points": 64}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "k_factor") {
		t.Errorf("rician without params: status %d body %s", status, body)
	}

	// Nonstationary trajectory conflicts with a top-level Doppler.
	status, body = post(`{
		"model": {"type": "identity", "n": 1, "fading": "nonstationary_doppler",
			"params": {"segments": [{"blocks": 2, "normalized_doppler": 0.1}]}},
		"seed": 1, "blocks": 2, "idft_points": 64, "normalized_doppler": 0.05
	}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "per-segment Doppler") {
		t.Errorf("trajectory with top-level Doppler: status %d body %s", status, body)
	}
}

// TestSetupKeyDistinguishesFadingParams pins the setup-cache content address:
// specs differing only in fading model or parameters must hash to distinct
// keys (sharing a cached Stream across them would serve the wrong channel),
// while foreign parameters of another model must not split the key.
func TestSetupKeyDistinguishesFadingParams(t *testing.T) {
	base := func() *SessionSpec {
		return &SessionSpec{
			Model:  chanspec.Model{Type: chanspec.ModelEq22},
			Seed:   9,
			Blocks: 4,
		}
	}
	rayleighKey := base().setupKey()

	rician := base()
	rician.Model.Fading = chanspec.FadingRician
	rician.Model.Params = &chanspec.FadingParams{KFactor: 3}
	k3 := rician.setupKey()
	if k3 == rayleighKey {
		t.Fatal("rician spec shares the rayleigh setup key")
	}
	rician5 := base()
	rician5.Model.Fading = chanspec.FadingRician
	rician5.Model.Params = &chanspec.FadingParams{KFactor: 5}
	if rician5.setupKey() == k3 {
		t.Fatal("distinct k_factor values share one setup key")
	}
	// A foreign parameter of another model does not split the key.
	noisy := base()
	noisy.Model.Fading = chanspec.FadingRician
	noisy.Model.Params = &chanspec.FadingParams{KFactor: 3, M: 7}
	if noisy.setupKey() != k3 {
		t.Fatal("foreign nakagami parameter split the rician setup key")
	}

	// The cache itself hands distinct Streams to distinct parameters.
	cache := newSetupCache(8, &metrics{})
	s3, err := cache.stream(rician)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := cache.stream(rician5)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s5 {
		t.Fatal("setup cache shares one Stream across distinct k_factor values")
	}
	again, err := cache.stream(rician)
	if err != nil {
		t.Fatal(err)
	}
	if again != s3 {
		t.Fatal("equal specs missed the setup cache")
	}
}
