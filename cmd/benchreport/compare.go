package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// comparison is the verdict for one benchmark present in the baseline.
type comparison struct {
	Name           string
	BaselineNs     float64
	CurrentNs      float64
	BaselineAllocs int64
	CurrentAllocs  int64
	// Ratio is current/baseline ns/op; > 1 means slower.
	Ratio float64
	// Regressed marks benchmarks slower than the ns/op tolerance allows.
	Regressed bool
	// AllocRegressed marks benchmarks whose allocs/op grew at all: unlike
	// wall time, allocation counts are deterministic and machine-invariant,
	// so any increase is a real regression regardless of runner hardware.
	AllocRegressed bool
	// Missing marks baseline benchmarks absent from the current report —
	// a silently dropped benchmark must not pass the gate.
	Missing bool
}

// compareReports checks every baseline benchmark against the current report:
// a benchmark regresses when its ns/op exceeds baseline·(1 + tolerance) or
// its allocs/op exceeds the baseline at all. Benchmarks new in the current
// report are ignored (they have no baseline); benchmarks missing from it
// are flagged. The boolean result is true when the gate passes.
func compareReports(baseline, current report, tolerance float64) ([]comparison, bool) {
	currentByName := make(map[string]result, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		currentByName[b.Name] = b
	}
	ok := true
	comparisons := make([]comparison, 0, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		c := comparison{Name: b.Name, BaselineNs: b.NsPerOp, BaselineAllocs: b.AllocsPerOp}
		if cur, found := currentByName[b.Name]; found {
			c.CurrentNs = cur.NsPerOp
			c.CurrentAllocs = cur.AllocsPerOp
			c.Ratio = cur.NsPerOp / b.NsPerOp
			c.Regressed = c.Ratio > 1+tolerance
			c.AllocRegressed = cur.AllocsPerOp > b.AllocsPerOp
		} else {
			c.Missing = true
		}
		if c.Regressed || c.AllocRegressed || c.Missing {
			ok = false
		}
		comparisons = append(comparisons, c)
	}
	return comparisons, ok
}

// checkGOMAXPROCS refuses to compare against a baseline recorded at another
// GOMAXPROCS. Allocation-heavy rows count the allocations of every GC cycle
// that lands inside the benchmark, and the number of cycles per op depends on
// GOMAXPROCS, so the strict allocs/op gate holds only between runs at the
// same setting.
func checkGOMAXPROCS(baseline report, current int) error {
	if baseline.GOMAXPROCS != current {
		return fmt.Errorf("baseline was recorded at GOMAXPROCS=%d but this run has GOMAXPROCS=%d; rerun with GOMAXPROCS=%d",
			baseline.GOMAXPROCS, current, baseline.GOMAXPROCS)
	}
	return nil
}

// formatComparisons renders the comparison table, one line per baseline
// benchmark.
func formatComparisons(comparisons []comparison, tolerance float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark regression gate (tolerance %+.0f%%):\n", 100*tolerance)
	for _, c := range comparisons {
		if c.Missing {
			fmt.Fprintf(&b, "  %-48s MISSING from current report\n", c.Name)
			continue
		}
		verdict := "ok"
		switch {
		case c.Regressed && c.AllocRegressed:
			verdict = "REGRESSED (time, allocs)"
		case c.Regressed:
			verdict = "REGRESSED"
		case c.AllocRegressed:
			verdict = "REGRESSED (allocs)"
		case c.Ratio < 1:
			verdict = "faster"
		}
		fmt.Fprintf(&b, "  %-48s %12.0f -> %12.0f ns/op  (%+6.1f%%)  %d -> %d allocs/op  %s\n",
			c.Name, c.BaselineNs, c.CurrentNs, 100*(c.Ratio-1), c.BaselineAllocs, c.CurrentAllocs, verdict)
	}
	return b.String()
}

// loadReport reads a committed benchmark report.
func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s contains no benchmarks", path)
	}
	return rep, nil
}
