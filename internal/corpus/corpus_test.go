package corpus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func writeFile(t *testing.T, dir, rel string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func removeFile(t *testing.T, dir, rel string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, rel)); err != nil {
		t.Fatal(err)
	}
}

// testPlan is a small fast plan for unit tests.
func testPlan() *Plan {
	return &Plan{
		Name:    "t",
		Seed:    42,
		Valid:   16,
		Invalid: 19,
		Generation: GenSizes{
			Draws:      16,
			Blocks:     4,
			IDFTPoints: 128,
			MaxWorkers: 4,
		},
	}
}

// TestGenerateDeterministic is the corpus determinism gate: the same plan
// and seed must expand to a byte-identical file set, file for file.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(testPlan())
	if err != nil {
		t.Fatalf("Generate (second): %v", err)
	}
	fa, fb := a.Files(), b.Files()
	if len(fa) != len(fb) {
		t.Fatalf("file counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Path != fb[i].Path {
			t.Fatalf("file %d path differs: %s vs %s", i, fa[i].Path, fb[i].Path)
		}
		if !bytes.Equal(fa[i].Data, fb[i].Data) {
			t.Errorf("file %s differs between identical expansions", fa[i].Path)
		}
	}
}

// TestGenerateSeedChangesCorpus guards against the opposite failure: a seed
// change must actually reshuffle the expansion (an RNG wired to a constant
// would pass the determinism gate trivially).
func TestGenerateSeedChangesCorpus(t *testing.T) {
	p1, p2 := testPlan(), testPlan()
	p2.Seed = 43
	a, err := Generate(p1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(p2)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	same := 0
	for i := range a.Valid {
		if bytes.Equal(a.Valid[i].Data, b.Valid[i].Data) {
			same++
		}
	}
	if same == len(a.Valid) {
		t.Error("changing the plan seed left every generated spec identical")
	}
}

// TestGeneratedSpecsRoundTripAndRun feeds every generated scenario through
// the strict parser and the engine: each file must decode to a valid spec,
// and every spec's deterministic gates must pass.
func TestGeneratedSpecsRoundTripAndRun(t *testing.T) {
	c, err := Generate(testPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range c.Valid {
		spec, err := scenario.Parse(e.Data)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", e.Name, err)
		}
		if seen[spec.Name] {
			t.Fatalf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s: run: %v", e.Name, err)
		}
		if !res.Passed {
			t.Errorf("%s: generated scenario failed its own gates:\n%s",
				e.Name, scenario.NewReport([]*scenario.Result{res}).Markdown())
		}
	}
}

// TestGenerateCoversModesAndInvalidClasses checks the corpus actually sweeps
// the axes: all three modes appear, at least one entry is replayable, and the
// invalid entries cover every rejection class once the count allows it.
func TestGenerateCoversModesAndInvalidClasses(t *testing.T) {
	c, err := Generate(testPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	gotMode := map[string]int{}
	replayable := 0
	for _, e := range c.Valid {
		gotMode[e.Spec.Generation.Mode]++
		if e.Session != nil {
			replayable++
		}
	}
	for _, mode := range modes() {
		if gotMode[mode] == 0 {
			t.Errorf("no generated spec in mode %q", mode)
		}
	}
	if replayable == 0 {
		t.Error("no replayable (realtime) entry generated")
	}
	if len(c.Sessions) == 0 {
		t.Error("no session templates derived")
	}
	for _, s := range c.Sessions {
		if s.Seed != 0 {
			t.Errorf("session template carries seed %d, want 0", s.Seed)
		}
	}
	gotClass := map[string]bool{}
	for _, e := range c.Invalid {
		gotClass[e.Class] = true
	}
	for _, cl := range invalidClasses() {
		if !gotClass[cl.class] {
			t.Errorf("invalid class %q not covered by %d invalid entries", cl.class, len(c.Invalid))
		}
	}
}

// TestPlanValidation is the invalid-plan rejection table.
func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"unknown-field", `{"name": "x", "seed": 1, "valid": 4, "specs": 9}`},
		{"no-name", `{"seed": 1, "valid": 4}`},
		{"zero-valid", `{"name": "x", "seed": 1, "valid": 0}`},
		{"negative-invalid", `{"name": "x", "seed": 1, "valid": 4, "invalid": -1}`},
		{"bad-model-axis", `{"name": "x", "seed": 1, "valid": 4, "axes": {"models": ["toeplitz"]}}`},
		{"bad-method-axis", `{"name": "x", "seed": 1, "valid": 4, "axes": {"methods": ["gauss_markov"]}}`},
		{"bad-fading-axis", `{"name": "x", "seed": 1, "valid": 4, "axes": {"fadings": ["weibull"]}}`},
		{"bad-mode-axis", `{"name": "x", "seed": 1, "valid": 4, "axes": {"modes": ["offline"]}}`},
		{"bad-n-axis", `{"name": "x", "seed": 1, "valid": 4, "axes": {"n": [1]}}`},
		{"negative-size", `{"name": "x", "seed": 1, "valid": 4, "generation": {"draws": -1}}`},
		{"not-json", `{"name":`},
		{"trailing-data", `{"name": "x", "seed": 1, "valid": 4} {"x": 1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParsePlan([]byte(tc.data)); !errors.Is(err, ErrBadPlan) {
				t.Errorf("ParsePlan accepted %s (err = %v), want ErrBadPlan", tc.name, err)
			}
		})
	}
}

// TestPlanTooConstrained pins the rejection-sampling failure mode: axes that
// admit no valid combination must error out, not loop forever. Trajectory
// fading in snapshot mode is structurally impossible.
func TestPlanTooConstrained(t *testing.T) {
	p := &Plan{
		Name:  "impossible",
		Seed:  1,
		Valid: 2,
		Axes: Axes{
			Modes:   []string{scenario.ModeSnapshot},
			Fadings: []string{"nonstationary_doppler"},
		},
	}
	if _, err := Generate(p); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("Generate on an impossible plan: err = %v, want ErrBadPlan", err)
	}
}

// TestWriteAndVerifyDir round-trips a corpus through the filesystem: a fresh
// write verifies clean, and any tampering — edits, deletions, stray spec
// files — shows up in the diff list.
func TestWriteAndVerifyDir(t *testing.T) {
	c, err := Generate(testPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	if err := c.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	diffs, err := VerifyDir(c, dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if len(diffs) != 0 {
		t.Fatalf("fresh write does not verify: %v", diffs)
	}

	// Tamper with one spec, drop another, and plant a stray file.
	files := c.Files()
	writeFile(t, dir, files[2].Path, append([]byte("  "), files[2].Data...))
	removeFile(t, dir, files[3].Path)
	writeFile(t, dir, SpecsDir+"/stray.json", []byte("{}\n"))
	diffs, err = VerifyDir(c, dir)
	if err != nil {
		t.Fatalf("VerifyDir after tampering: %v", err)
	}
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"changed: " + files[2].Path, "missing: " + files[3].Path, "extra: " + SpecsDir + "/stray.json"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}
}

// TestSmokePlanMatchesGolden regenerates the committed golden mini-corpus
// from its committed plan and demands byte-identity — the cross-session,
// cross-platform determinism witness of scenarios/corpus-smoke/.
func TestSmokePlanMatchesGolden(t *testing.T) {
	p, err := LoadPlan("../../plans/corpus-smoke.json")
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	c, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	diffs, err := VerifyDir(c, "../../scenarios/corpus-smoke")
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if len(diffs) != 0 {
		t.Fatalf("golden corpus out of date (regenerate with: go run ./cmd/corpusgen gen -plan plans/corpus-smoke.json -out scenarios/corpus-smoke):\n%s",
			strings.Join(diffs, "\n"))
	}
}

// TestFullPlanMeetsAcceptance pins the committed full plan against the
// acceptance floor: ≥ 200 valid and ≥ 20 targeted-invalid specs, every name
// unique, every spec strictly parseable.
func TestFullPlanMeetsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-plan expansion skipped in -short mode")
	}
	p, err := LoadPlan("../../plans/corpus-full.json")
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}
	c, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(c.Valid) < 200 {
		t.Errorf("full plan generated %d valid specs, want >= 200", len(c.Valid))
	}
	if len(c.Invalid) < 20 {
		t.Errorf("full plan generated %d invalid specs, want >= 20", len(c.Invalid))
	}
	seen := map[string]bool{}
	for _, e := range c.Valid {
		if seen[e.Name] {
			t.Fatalf("duplicate name %q", e.Name)
		}
		seen[e.Name] = true
		if _, err := scenario.Parse(e.Data); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
	if c.Manifest.ValidCount != len(c.Valid) || c.Manifest.InvalidCount != len(c.Invalid) {
		t.Errorf("manifest counts (%d, %d) disagree with corpus (%d, %d)",
			c.Manifest.ValidCount, c.Manifest.InvalidCount, len(c.Valid), len(c.Invalid))
	}
	if len(c.Manifest.Entries) != len(c.Valid)+len(c.Invalid) {
		t.Errorf("manifest has %d entries, want %d", len(c.Manifest.Entries), len(c.Valid)+len(c.Invalid))
	}
}
