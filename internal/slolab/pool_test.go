package slolab

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/service"
)

// testPool is a small corpus-style session pool: two distinct seed-zero
// templates (the shape corpus sessions.json files carry).
const testPool = `[
  {"model": {"type": "identity", "n": 2}, "seed": 0, "blocks": 4, "idft_points": 64},
  {"model": {"type": "exponential", "n": 3, "rho": 0.5}, "method": "generalized", "seed": 0, "blocks": 4, "idft_points": 64}
]`

func writePool(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sessions.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSessionPool(t *testing.T) {
	pool, err := LoadSessionPool(writePool(t, testPool))
	if err != nil {
		t.Fatalf("LoadSessionPool: %v", err)
	}
	if len(pool) != 2 {
		t.Fatalf("pool size %d, want 2", len(pool))
	}
	if pool[1].Model.Type != "exponential" {
		t.Errorf("template 1 model %q", pool[1].Model.Type)
	}
}

// TestLoadSessionPoolRejections is the pool-validation table: missing files,
// empty pools, carried seeds, unknown fields and invalid templates all fail
// up front.
func TestLoadSessionPoolRejections(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty-array", `[]`},
		{"nonzero-seed", `[{"model": {"type": "identity", "n": 2}, "seed": 7, "blocks": 4}]`},
		{"unknown-field", `[{"model": {"type": "identity", "n": 2}, "seed": 0, "total_blocks": 4}]`},
		{"invalid-template", `[{"model": {"type": "identity", "n": 2}, "seed": 0, "blocks": 0}]`},
		{"not-an-array", `{"model": {"type": "identity", "n": 2}}`},
		{"trailing-data", testPool + ` garbage`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadSessionPool(writePool(t, tc.body)); err == nil {
				t.Error("LoadSessionPool accepted a bad pool")
			}
		})
	}
	if _, err := LoadSessionPool(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("LoadSessionPool accepted a missing file")
	}
}

// TestSpecFileOnlyWithSpecChurn pins the validation rule: an external pool
// makes no sense for faults that never do cold creates.
func TestSpecFileOnlyWithSpecChurn(t *testing.T) {
	spec := engineSpec("pooled-wrong-fault")
	spec.Fault = Fault{Type: FaultNone, SpecFile: "x.json"}
	if err := spec.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Validate = %v, want ErrBadSpec", err)
	}
	spec.Fault = Fault{Type: FaultSpecChurn, SpecFile: "x.json"}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate with spec_churn: %v", err)
	}
}

// TestSpecChurnWithPool runs a pooled spec_churn scenario end to end: cold
// inject creates must cycle the pool templates (distinct canonical specs in
// the server's setup cache) and the run must stay error-free.
func TestSpecChurnWithPool(t *testing.T) {
	path := writePool(t, testPool)
	spec := engineSpec("pooled-churn")
	spec.Session = service.SessionSpec{
		Model:      chanspec.Model{Type: "eq22"},
		Blocks:     8,
		IDFTPoints: 64,
	}
	spec.Phases = Phases{
		Warmup:  PhaseSpec{Units: 2},
		Inject:  PhaseSpec{Units: 4},
		Recover: PhaseSpec{Units: 2},
	}
	spec.Fault = Fault{Type: FaultSpecChurn, SpecFile: path}
	spec.Gates = []GateSpec{
		{Type: GateErrorRate, Phase: PhaseInject},
		{Type: GateErrorRate, Phase: PhaseRecover},
	}
	sum, err := Run(spec, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sum.Passed {
		t.Fatalf("pooled spec_churn failed gates: %+v", sum.Gates)
	}
	inject := sum.Phases[PhaseInject]
	if want := spec.Clients * spec.Phases.Inject.Units; inject.Creates != want {
		t.Errorf("inject creates = %d, want %d", inject.Creates, want)
	}
	if inject.Errors != 0 {
		t.Errorf("inject errors = %d, want 0", inject.Errors)
	}
}

// TestSpecChurnPoolMissingFileFailsRun pins the failure surface: a pool that
// cannot be loaded fails the run up front, not as create errors.
func TestSpecChurnPoolMissingFileFailsRun(t *testing.T) {
	spec := engineSpec("pooled-missing")
	spec.Fault = Fault{Type: FaultSpecChurn, SpecFile: filepath.Join(t.TempDir(), "gone.json")}
	spec.Gates = []GateSpec{{Type: GateErrorRate}}
	if _, err := Run(spec, RunOptions{}); err == nil {
		t.Fatal("Run succeeded with a missing pool file")
	}
}

// TestCorpusSmokePoolLoads keeps the committed corpus pool loadable by the
// committed SLO scenario — the file corpus-spec-churn.json actually points
// at.
func TestCorpusSmokePoolLoads(t *testing.T) {
	pool, err := LoadSessionPool("../../scenarios/corpus-smoke/sessions.json")
	if err != nil {
		t.Fatalf("LoadSessionPool: %v", err)
	}
	if len(pool) == 0 {
		t.Fatal("committed pool is empty")
	}
}
