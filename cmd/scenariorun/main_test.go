package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func specsNamed(names ...string) []*scenario.Spec {
	out := make([]*scenario.Spec, len(names))
	for i, n := range names {
		out[i] = &scenario.Spec{Name: n}
	}
	return out
}

func names(specs []*scenario.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func TestFilterAll(t *testing.T) {
	specs := specsNamed("a", "b", "c")
	if got := filter(specs, true, ""); len(got) != 3 {
		t.Errorf("filter -all returned %v", names(got))
	}
}

func TestFilterBySubstring(t *testing.T) {
	specs := specsNamed("eq22-snapshot", "ofdm-spectral", "realtime-eq22")
	got := filter(specs, false, "eq22")
	if len(got) != 2 || got[0].Name != "eq22-snapshot" || got[1].Name != "realtime-eq22" {
		t.Errorf("filter eq22 returned %v", names(got))
	}
	if got := filter(specs, false, "nothing-matches"); len(got) != 0 {
		t.Errorf("filter miss returned %v", names(got))
	}
	if got := filter(specs, false, ""); got != nil {
		t.Errorf("empty filter without -all returned %v", names(got))
	}
}

func TestFilterByTag(t *testing.T) {
	specs := []*scenario.Spec{
		{Name: "a", Tags: []string{"ofdm", "batched"}},
		{Name: "b", Tags: []string{"mimo"}},
	}
	got := filter(specs, false, "ofdm")
	if len(got) != 1 || got[0].Name != "a" {
		t.Errorf("tag filter returned %v", names(got))
	}
}

// TestPaperSelection pins `-run paper` over the committed scenarios/ to the
// paper's E3–E9 experiments, so a rename or retag cannot silently drop one.
// E1/E2 (Eq. (22)/(23) rebuilt from physical parameters) are unit tests:
// TestSpectralCovarianceReproducesEq22 and TestSpatialCovarianceReproducesEq23
// in internal/corrmodel.
func TestPaperSelection(t *testing.T) {
	specs, err := scenario.LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want := []string{
		"eq22-snapshot",                  // E5/E9: snapshot statistics vs Eq. (22), (14)-(15)
		"paper-e3-fig4a-realtime",        // E3: Fig. 4(a), real-time Eq. (22) envelopes
		"paper-e4-fig4b-realtime",        // E4: Fig. 4(b), real-time spatial envelopes
		"paper-e6-indefinite-explicit",   // E6: indefinite covariance forcing
		"realtime-eq22-covariance",       // E7: Eq. (19) Doppler-gain correction
		"realtime-jakes-autocorrelation", // E8: autocorrelation vs J0
		"realtime-unit-variance-defect",  // E7: the unit-variance defect of [6]
	}
	if got := names(filter(specs, false, "paper")); !slices.Equal(got, want) {
		t.Errorf("-run paper selects %v, want %v", got, want)
	}
}

// passingSpec is a cheap deterministic scenario: an identity target never
// clamps, so the exact psd_forcing gate passes, and into_identity is a pure
// bit-identity check.
const passingSpec = `{
  "name": "exitcode-pass",
  "seed": 7,
  "model": {"type": "identity", "n": 2},
  "generation": {"mode": "snapshot", "draws": 8},
  "assertions": [
    {"type": "psd_forcing", "max_clamped": 0},
    {"type": "into_identity"}
  ]
}`

// failingSpec demands at least one clamped eigenvalue from the same identity
// target — deterministically false, so the run always fails its gate.
const failingSpec = `{
  "name": "exitcode-fail",
  "seed": 7,
  "model": {"type": "identity", "n": 2},
  "generation": {"mode": "snapshot", "draws": 8},
  "assertions": [
    {"type": "psd_forcing", "min_clamped": 1}
  ]
}`

func writeSpecDir(t *testing.T, specs map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range specs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunExitCodes is the exit-code contract table: 0 all gates pass, 1 a
// gate failed (and the summary names the failed assertion, not just the
// scenario), 2 usage or spec errors.
func TestRunExitCodes(t *testing.T) {
	passDir := writeSpecDir(t, map[string]string{"pass.json": passingSpec})
	failDir := writeSpecDir(t, map[string]string{"pass.json": passingSpec, "fail.json": failingSpec})

	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr []string
	}{
		{
			name:     "all-pass",
			args:     []string{"-dir", passDir, "-all", "-q"},
			wantCode: 0,
			wantStderr: []string{
				"all 1 scenarios passed",
			},
		},
		{
			name:     "gate-failure-names-assertion",
			args:     []string{"-dir", failDir, "-all", "-q"},
			wantCode: 1,
			wantStderr: []string{
				"FAIL exitcode-fail: psd_forcing: clamped eigenvalues 0 >= 1",
				"1 of 2 scenarios FAILED",
			},
		},
		{
			name:       "bad-flag",
			args:       []string{"-no-such-flag"},
			wantCode:   2,
			wantStderr: []string{"flag provided but not defined"},
		},
		{
			name:       "missing-dir",
			args:       []string{"-dir", filepath.Join(passDir, "nope"), "-all"},
			wantCode:   2,
			wantStderr: []string{"scenariorun:"},
		},
		{
			name:       "no-selection",
			args:       []string{"-dir", passDir},
			wantCode:   2,
			wantStderr: []string{"no scenarios selected"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.wantCode {
				t.Fatalf("run(%v) = %d, want %d\nstderr:\n%s", tc.args, got, tc.wantCode, stderr.String())
			}
			for _, want := range tc.wantStderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestRunPerScenarioFailureLine pins the per-scenario progress line: a failed
// scenario's PASS/FAIL line carries the failed gate and check inline.
func TestRunPerScenarioFailureLine(t *testing.T) {
	dir := writeSpecDir(t, map[string]string{"fail.json": failingSpec})
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-dir", dir, "-all", "-q"}, &stdout, &stderr); got != 1 {
		t.Fatalf("run = %d, want 1", got)
	}
	if !strings.Contains(stderr.String(), "FAIL (psd_forcing: clamped eigenvalues 0 >= 1)") {
		t.Errorf("progress line does not name the failed check:\n%s", stderr.String())
	}
}

// TestRunWritesArtifacts covers the -json/-md artifact paths through run().
func TestRunWritesArtifacts(t *testing.T) {
	dir := writeSpecDir(t, map[string]string{"pass.json": passingSpec})
	out := t.TempDir()
	jsonPath := filepath.Join(out, "sub", "report.json")
	mdPath := filepath.Join(out, "report.md")
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-dir", dir, "-all", "-q", "-json", jsonPath, "-md", mdPath}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d, want 0\nstderr:\n%s", got, stderr.String())
	}
	for _, p := range []string{jsonPath, mdPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("artifact %s: %v", p, err)
		}
		if !strings.Contains(string(data), "exitcode-pass") {
			t.Errorf("artifact %s does not mention the scenario", p)
		}
	}
}
