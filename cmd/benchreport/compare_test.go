package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repWith(pairs ...any) report {
	var rep report
	for i := 0; i < len(pairs); i += 2 {
		rep.Benchmarks = append(rep.Benchmarks, result{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return rep
}

func TestCompareReportsWithinTolerance(t *testing.T) {
	baseline := repWith("a", 100.0, "b", 200.0)
	current := repWith("a", 120.0, "b", 150.0, "new", 999.0)
	comparisons, ok := compareReports(baseline, current, 0.25)
	if !ok {
		t.Fatalf("gate failed within tolerance: %+v", comparisons)
	}
	if len(comparisons) != 2 {
		t.Fatalf("comparisons = %d, want 2 (new benchmarks have no baseline)", len(comparisons))
	}
	if comparisons[0].Ratio != 1.2 || comparisons[0].Regressed {
		t.Errorf("a: %+v", comparisons[0])
	}
	if comparisons[1].Ratio != 0.75 || comparisons[1].Regressed {
		t.Errorf("b: %+v", comparisons[1])
	}
}

func TestCompareReportsFlagsRegression(t *testing.T) {
	baseline := repWith("a", 100.0, "b", 200.0)
	current := repWith("a", 126.0, "b", 200.0)
	comparisons, ok := compareReports(baseline, current, 0.25)
	if ok {
		t.Fatal("gate passed a 26% regression at 25% tolerance")
	}
	if !comparisons[0].Regressed || comparisons[1].Regressed {
		t.Errorf("regression flags wrong: %+v", comparisons)
	}
	out := formatComparisons(comparisons, 0.25)
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("format lacks REGRESSED marker:\n%s", out)
	}
}

func TestCompareReportsFlagsAllocRegression(t *testing.T) {
	baseline := repWith("a", 100.0)
	baseline.Benchmarks[0].AllocsPerOp = 0
	current := repWith("a", 100.0)
	current.Benchmarks[0].AllocsPerOp = 2
	comparisons, ok := compareReports(baseline, current, 0.25)
	if ok {
		t.Fatal("gate passed an allocs/op increase")
	}
	if !comparisons[0].AllocRegressed || comparisons[0].Regressed {
		t.Errorf("alloc regression flags wrong: %+v", comparisons[0])
	}
	if out := formatComparisons(comparisons, 0.25); !strings.Contains(out, "REGRESSED (allocs)") {
		t.Errorf("format lacks alloc regression marker:\n%s", out)
	}
}

func TestCompareReportsFlagsMissingBenchmark(t *testing.T) {
	baseline := repWith("a", 100.0, "gone", 50.0)
	current := repWith("a", 100.0)
	comparisons, ok := compareReports(baseline, current, 0.25)
	if ok {
		t.Fatal("gate passed with a baseline benchmark missing")
	}
	if !comparisons[1].Missing {
		t.Errorf("missing flag not set: %+v", comparisons[1])
	}
	if out := formatComparisons(comparisons, 0.25); !strings.Contains(out, "MISSING") {
		t.Errorf("format lacks MISSING marker:\n%s", out)
	}
}

func TestCheckGOMAXPROCSRejectsMismatch(t *testing.T) {
	baseline := repWith("a", 100.0)
	baseline.GOMAXPROCS = 1
	if err := checkGOMAXPROCS(baseline, 1); err != nil {
		t.Errorf("matching GOMAXPROCS rejected: %v", err)
	}
	err := checkGOMAXPROCS(baseline, 2)
	if err == nil {
		t.Fatal("baseline at GOMAXPROCS=1 accepted for a GOMAXPROCS=2 run")
	}
	for _, want := range []string{"GOMAXPROCS=1", "GOMAXPROCS=2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestLoadReportCommittedBaseline(t *testing.T) {
	rep, err := loadReport(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatalf("loadReport(BENCH_core.json): %v", err)
	}
	if len(rep.Benchmarks) < 8 {
		t.Errorf("committed baseline has %d benchmarks, want >= 8", len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %g", b.Name, b.NsPerOp)
		}
	}
}

func TestLoadReportRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(empty); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := loadReport(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("absent file accepted")
	}
}

// TestReportPath pins where a run writes its report: BENCH_core.json by
// default, the -o path when given, and under -compare nothing unless -o is
// given.
func TestReportPath(t *testing.T) {
	for _, tc := range []struct {
		name, out, compare, want string
	}{
		{"default", "", "", "BENCH_core.json"},
		{"explicit", "bench-current.json", "", "bench-current.json"},
		{"compare without -o writes nothing", "", "BENCH_core.json", ""},
		{"compare to stdout", "-", "BENCH_core.json", "-"},
		{"compare to another file", "bench-current.json", "BENCH_core.json", "bench-current.json"},
	} {
		if got := reportPath(tc.out, tc.compare); got != tc.want {
			t.Errorf("%s: reportPath(%q, %q) = %q; want %q", tc.name, tc.out, tc.compare, got, tc.want)
		}
	}
}
