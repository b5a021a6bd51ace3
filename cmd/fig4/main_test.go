package main

import (
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/chanspec"
)

func TestPanelCovariance(t *testing.T) {
	a, labelA, err := panelCovariance("a")
	if err != nil {
		t.Fatalf("panelCovariance(a): %v", err)
	}
	if !strings.Contains(labelA, "22") {
		t.Errorf("panel a label %q does not reference Eq. (22)", labelA)
	}
	eq22 := chanspec.Eq22Covariance()
	for i := range a {
		for j := range a[i] {
			if cmplx.Abs(a[i][j]-eq22.At(i, j)) > 6e-4 {
				t.Errorf("panel a K(%d,%d) = %v, want Eq. (22) value %v", i, j, a[i][j], eq22.At(i, j))
			}
		}
	}

	b, labelB, err := panelCovariance("b")
	if err != nil {
		t.Fatalf("panelCovariance(b): %v", err)
	}
	if !strings.Contains(labelB, "23") {
		t.Errorf("panel b label %q does not reference Eq. (23)", labelB)
	}
	if cmplx.Abs(b[0][1]-0.8123) > 6e-4 {
		t.Errorf("panel b K(0,1) = %v, want Eq. (23) value", b[0][1])
	}

	if _, _, err := panelCovariance("c"); err == nil {
		t.Errorf("unknown panel did not error")
	}
}

func TestFormatMatrixMentionsEntries(t *testing.T) {
	m, _, err := panelCovariance("b")
	if err != nil {
		t.Fatalf("panelCovariance: %v", err)
	}
	s := formatRows(m)
	if !strings.Contains(s, "0.8123") {
		t.Errorf("formatMatrix output does not contain the expected entry:\n%s", s)
	}
	if got := strings.Count(s, "\n"); got != 3 {
		t.Errorf("formatMatrix printed %d rows, want 3", got)
	}
}
