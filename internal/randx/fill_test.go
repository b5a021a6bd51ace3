package randx

import "testing"

func TestFillComplexNormalMatchesComplexNormalVector(t *testing.T) {
	a := New(277)
	b := New(277)
	want := a.ComplexNormalVector(50, 1.7)
	got := make([]complex128, 50)
	b.FillComplexNormal(got, 1.7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: FillComplexNormal %v vs ComplexNormalVector %v", i, got[i], want[i])
		}
	}
}

func TestFillsDoNotAllocate(t *testing.T) {
	rng := New(281)
	dstF := make([]float64, 64)
	dstC := make([]complex128, 64)
	if n := testing.AllocsPerRun(100, func() { rng.FillNormal(dstF, 1) }); n != 0 {
		t.Errorf("FillNormal allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { rng.FillComplexNormal(dstC, 1) }); n != 0 {
		t.Errorf("FillComplexNormal allocates %v per run", n)
	}
}
