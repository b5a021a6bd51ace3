package slolab

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/service"
)

// validSpec returns a minimal passing spec the validation tests mutate.
func validSpec() *Spec {
	return &Spec{
		Name:    "t",
		Seed:    7,
		Clients: 2,
		Session: service.SessionSpec{
			Model:      chanspec.Model{Type: "eq22"},
			Blocks:     16,
			IDFTPoints: 64,
		},
		Phases: Phases{
			Warmup:  PhaseSpec{Units: 2},
			Inject:  PhaseSpec{Units: 4},
			Recover: PhaseSpec{Units: 2},
		},
		Fault: Fault{Type: FaultNone},
		Gates: []GateSpec{{Type: GateErrorRate}},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		ok     bool
	}{
		{"valid", func(s *Spec) {}, true},
		{"no name", func(s *Spec) { s.Name = "" }, false},
		{"no clients", func(s *Spec) { s.Clients = 0 }, false},
		{"seeded template", func(s *Spec) { s.Session.Seed = 9 }, false},
		{"no inject units", func(s *Spec) { s.Phases.Inject.Units = 0 }, false},
		{"negative units", func(s *Spec) { s.Phases.Warmup.Units = -1 }, false},
		{"blocks too short", func(s *Spec) { s.Session.Blocks = 3 }, false},
		{"no fault", func(s *Spec) { s.Fault.Type = "" }, false},
		{"unknown fault", func(s *Spec) { s.Fault.Type = "gremlins" }, false},
		{"no gates", func(s *Spec) { s.Gates = nil }, false},
		{"unknown gate", func(s *Spec) { s.Gates[0].Type = "vibes" }, false},
		{"unknown gate phase", func(s *Spec) { s.Gates[0].Phase = "cooldown" }, false},
		{"slow consumer without rate", func(s *Spec) { s.Fault = Fault{Type: FaultSlowConsumer} }, false},
		{"slow consumer", func(s *Spec) { s.Fault = Fault{Type: FaultSlowConsumer, BytesPerSec: 1 << 16} }, true},
		{"kill resume without cuts", func(s *Spec) { s.Fault = Fault{Type: FaultKillResume} }, false},
		{"kill resume negative cut", func(s *Spec) { s.Fault = Fault{Type: FaultKillResume, CutBlocks: []int{-1}} }, false},
		{"kill resume", func(s *Spec) { s.Fault = Fault{Type: FaultKillResume, CutBlocks: []int{1, 3}} }, true},
		{"saturate without extra", func(s *Spec) {
			s.Fault = Fault{Type: FaultSaturate}
			s.Server.MaxSessions = s.Clients
		}, false},
		{"saturate without exact cap", func(s *Spec) { s.Fault = Fault{Type: FaultSaturate, ExtraSessions: 2} }, false},
		{"saturate", func(s *Spec) {
			s.Fault = Fault{Type: FaultSaturate, ExtraSessions: 2}
			s.Server.MaxSessions = s.Clients
		}, true},
		{"conn churn short session", func(s *Spec) {
			s.Fault = Fault{Type: FaultConnChurn, BlocksPerConn: 20}
		}, false},
		{"conn churn", func(s *Spec) { s.Fault = Fault{Type: FaultConnChurn, BlocksPerConn: 4} }, true},
		{"spec churn", func(s *Spec) { s.Fault = Fault{Type: FaultSpecChurn} }, true},
		{"latency gate without bounds", func(s *Spec) { s.Gates = []GateSpec{{Type: GateLatency}} }, false},
		{"latency gate bad metric", func(s *Spec) {
			s.Gates = []GateSpec{{Type: GateLatency, P95Ms: 10, Metric: "dns"}}
		}, false},
		{"latency gate", func(s *Spec) {
			s.Gates = []GateSpec{{Type: GateLatency, P50Ms: 5, P99Ms: 50, Metric: "create", Phase: PhaseRecover}}
		}, true},
		{"rate gate out of range", func(s *Spec) { s.Gates = []GateSpec{{Type: GateErrorRate, MaxRate: 1}} }, false},
		{"throughput gate without floor", func(s *Spec) { s.Gates = []GateSpec{{Type: GateThroughput}} }, false},
		{"alloc gate without budget", func(s *Spec) { s.Gates = []GateSpec{{Type: GateAllocBudget}} }, false},
		{"byte identity without kill_resume", func(s *Spec) { s.Gates = []GateSpec{{Type: GateByteIdentity}} }, false},
		{"resumes without kill_resume", func(s *Spec) { s.Gates = []GateSpec{{Type: GateResumes, MinResumes: 1}} }, false},
		{"retry_after without saturate", func(s *Spec) {
			s.Gates = []GateSpec{{Type: GateRetryAfter, MinRejections: 1}}
		}, false},
		{"retry_after", func(s *Spec) {
			s.Fault = Fault{Type: FaultSaturate, ExtraSessions: 2}
			s.Server.MaxSessions = s.Clients
			s.Gates = []GateSpec{{Type: GateRetryAfter, MinRejections: 1, MinCoverage: 0.9}}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate: unexpected error %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("Validate: expected error")
				}
				if !errors.Is(err, ErrBadSpec) {
					t.Fatalf("Validate: error %v is not ErrBadSpec", err)
				}
			}
		})
	}
}

// TestParseRejectsUnknownFields: a typo'd field, like data after the spec,
// fails the parse instead of being dropped silently.
func TestParseRejectsUnknownFields(t *testing.T) {
	spec := func(gateField string) string {
		return `{
			"name": "x", "seed": 1, "clients": 1,
			"session": {"model": {"type": "eq22"}, "seed": 0, "blocks": 8},
			"phases": {"inject": {"units": 4}},
			"fault": {"type": "none"},
			"gates": [{"type": "error_rate", "` + gateField + `": 0.1}]
		}`
	}
	for name, body := range map[string]string{
		"typo'd gate field":   spec("max_rte"),
		"data after the spec": spec("max_rate") + " garbage",
	} {
		if _, err := Parse([]byte(body)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: Parse error = %v, want ErrBadSpec", name, err)
		}
	}
}

func TestConfigHash(t *testing.T) {
	a, b := validSpec(), validSpec()
	if a.ConfigHash() != b.ConfigHash() {
		t.Fatal("ConfigHash: identical specs hash differently")
	}
	b.Phases.Inject.Units++
	if a.ConfigHash() == b.ConfigHash() {
		t.Fatal("ConfigHash: different workloads share a hash")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, scenario string) {
		t.Helper()
		body := `{
			"name": "` + scenario + `", "seed": 1, "clients": 1,
			"session": {"model": {"type": "eq22"}, "seed": 0, "blocks": 8},
			"phases": {"warmup": {"units": 0}, "inject": {"units": 4}, "recover": {"units": 0}},
			"fault": {"type": "none"},
			"gates": [{"type": "error_rate"}]
		}`
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.json", "zeta")
	write("a.json", "alpha")
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Name != "zeta" {
		t.Fatalf("LoadDir: want [alpha zeta], got %d specs", len(specs))
	}

	write("c.json", "alpha")
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("LoadDir: duplicate scenario name accepted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {1.0, 10},
	}
	for _, tc := range cases {
		if got := Percentile(sorted, tc.q); got != tc.want {
			t.Errorf("Percentile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.MeanMs != 2.5 || s.P50Ms != 2 || s.MaxMs != 4 {
		t.Fatalf("Summarize: got %+v", s)
	}
	if z := Summarize(nil); z.Count != 0 {
		t.Fatalf("Summarize(empty): got %+v", z)
	}
}
