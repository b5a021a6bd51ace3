package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testPlanJSON is a small fast plan exercising every subcommand.
const testPlanJSON = `{
  "name": "cli",
  "seed": 5,
  "valid": 6,
  "invalid": 4,
  "generation": {"draws": 8, "blocks": 4, "idft_points": 128}
}`

// replayPlanJSON keeps the CLI replay test cheap: realtime-only, so every
// valid entry replays.
const replayPlanJSON = `{
  "name": "clirp",
  "seed": 6,
  "valid": 2,
  "invalid": 2,
  "axes": {"modes": ["realtime"]},
  "generation": {"blocks": 4, "idft_points": 128}
}`

func writePlan(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestGenVerifyRoundTrip is the CLI determinism gate: gen writes a corpus,
// verify regenerates from the same plan and must find it byte-identical; a
// tampered file must flip verify to exit 1 and be named in the diff.
func TestGenVerifyRoundTrip(t *testing.T) {
	plan := writePlan(t, testPlanJSON)
	out := filepath.Join(t.TempDir(), "corpus")

	code, stdout, stderr := runCLI(t, "gen", "-plan", plan, "-out", out)
	if code != 0 {
		t.Fatalf("gen = %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "6 valid, 4 invalid") {
		t.Errorf("gen summary missing counts: %q", stdout)
	}

	code, stdout, stderr = runCLI(t, "verify", "-plan", plan, "-dir", out)
	if code != 0 {
		t.Fatalf("verify on fresh gen = %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "byte-identical") {
		t.Errorf("verify summary: %q", stdout)
	}

	// Tamper with the manifest and expect a named diff and exit 1.
	manifest := filepath.Join(out, "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, append(data, ' '), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(t, "verify", "-plan", plan, "-dir", out)
	if code != 1 {
		t.Fatalf("verify after tampering = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "changed: manifest.json") {
		t.Errorf("verify diff does not name the tampered file:\n%s", stderr)
	}
}

// TestGoldenSmokeCorpusVerifies runs the real CLI verify against the
// committed golden mini-corpus — the same gate CI runs.
func TestGoldenSmokeCorpusVerifies(t *testing.T) {
	code, _, stderr := runCLI(t,
		"verify", "-plan", "../../plans/corpus-smoke.json", "-dir", "../../scenarios/corpus-smoke")
	if code != 0 {
		t.Fatalf("golden corpus verify = %d (regenerate with: go run ./cmd/corpusgen gen -plan plans/corpus-smoke.json -out scenarios/corpus-smoke)\nstderr:\n%s",
			code, stderr)
	}
}

// TestListPrintsManifest covers the list subcommand: every manifest entry
// appears, scenario rows carry their axis summary, invalid rows their class.
func TestListPrintsManifest(t *testing.T) {
	plan := writePlan(t, testPlanJSON)
	code, stdout, stderr := runCLI(t, "list", "-plan", plan)
	if code != 0 {
		t.Fatalf("list = %d\nstderr:\n%s", code, stderr)
	}
	if got := strings.Count(stdout, "\n"); got != 10 {
		t.Errorf("list printed %d lines, want 10 (6 valid + 4 invalid)", got)
	}
	for _, want := range []string{"scenario", "mode=", "method=", "fading=", "invalid", "class="} {
		if !strings.Contains(stdout, want) {
			t.Errorf("list output missing %q:\n%s", want, stdout)
		}
	}
}

// TestReplaySubcommand runs the full CLI replay path against an in-process
// server: byte-identity passes and 400 rejections both reported, exit 0.
func TestReplaySubcommand(t *testing.T) {
	plan := writePlan(t, replayPlanJSON)
	code, stdout, stderr := runCLI(t, "replay", "-plan", plan)
	if code != 0 {
		t.Fatalf("replay = %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "replayed 2 specs against 1 servers") {
		t.Errorf("replay summary: %q", stdout)
	}
	if !strings.Contains(stdout, "2 invalid specs rejected") {
		t.Errorf("replay summary missing rejections: %q", stdout)
	}
}

// TestUsageErrors is the exit-2 table: unknown subcommands, missing required
// flags, unparseable or invalid plans.
func TestUsageErrors(t *testing.T) {
	goodPlan := writePlan(t, testPlanJSON)
	badPlan := writePlan(t, `{"name": "x", "seed": 1, "valid": 4, "axes": {"models": ["toeplitz"]}}`)
	cases := []struct {
		name       string
		args       []string
		wantStderr string
	}{
		{"no-args", nil, "usage"},
		{"unknown-subcommand", []string{"frobnicate"}, "unknown subcommand"},
		{"gen-missing-out", []string{"gen", "-plan", goodPlan}, "-out is required"},
		{"gen-missing-plan", []string{"gen", "-out", "x"}, "-plan is required"},
		{"verify-missing-dir", []string{"verify", "-plan", goodPlan}, "-dir is required"},
		{"invalid-plan-rejected", []string{"list", "-plan", badPlan}, "unknown model type"},
		{"missing-plan-file", []string{"list", "-plan", "no/such/plan.json"}, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("run(%v) = %d, want 2\nstderr:\n%s", tc.args, code, stderr)
			}
			if !strings.Contains(stderr, tc.wantStderr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantStderr, stderr)
			}
		})
	}
}
