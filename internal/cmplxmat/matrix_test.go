package cmplxmat

import (
	"math"
	"strings"
	"testing"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	if m.IsSquare() {
		t.Fatalf("3x4 matrix reported as square")
	}
	if sq := New(2, 2); !sq.IsSquare() {
		t.Fatalf("2x2 matrix not reported as square")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 0, 1+2i)
	m.Set(1, 2, -3.5+0.25i)
	if got := m.At(0, 0); got != 1+2i {
		t.Errorf("At(0,0) = %v, want (1+2i)", got)
	}
	if got := m.At(1, 2); got != -3.5+0.25i {
		t.Errorf("At(1,2) = %v, want (-3.5+0.25i)", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %v, want 0", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := New(2, 2)
	cases := [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", c[0], c[1])
				}
			}()
			m.At(c[0], c[1])
		}()
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if got := id.At(i, j); got != want {
				t.Errorf("Identity(4).At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]complex128{{1, 2}, {3i, 4 + 1i}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(1, 0) != 3i || m.At(1, 1) != 4+1i {
		t.Errorf("FromRows produced wrong entries: %v", m)
	}

	if _, err := FromRows([][]complex128{{1, 2}, {3}}); err == nil {
		t.Errorf("FromRows with ragged rows did not error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Errorf("FromRows(nil) did not error")
	}
}

func TestMustFromRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustFromRows with ragged rows did not panic")
		}
	}()
	MustFromRows([][]complex128{{1}, {1, 2}})
}

func TestDiag(t *testing.T) {
	d := DiagReal([]float64{0.5, -2, 3})
	if d.Rows() != 3 || d.Cols() != 3 {
		t.Fatalf("DiagReal dims = %dx%d, want 3x3", d.Rows(), d.Cols())
	}
	if d.At(0, 0) != 0.5 || d.At(1, 1) != -2 || d.At(2, 2) != 3 {
		t.Errorf("DiagReal wrong diagonal: %v", d.DiagVals())
	}
	if d.At(0, 1) != 0 || d.At(2, 0) != 0 {
		t.Errorf("DiagReal off-diagonal not zero")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustFromRows([][]complex128{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone shares storage with original")
	}
}

func TestRowDiagVals(t *testing.T) {
	m := MustFromRows([][]complex128{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Errorf("Row(1) = %v", row)
	}
	// Mutating the returned slice must not affect the matrix.
	row[0] = 100
	if m.At(1, 0) != 4 {
		t.Errorf("Row returned aliased storage")
	}
	d := m.DiagVals()
	if len(d) != 2 || d[0] != 1 || d[1] != 5 {
		t.Errorf("DiagVals = %v", d)
	}
}

func TestIsHermitian(t *testing.T) {
	h := MustFromRows([][]complex128{
		{2, 1 + 1i},
		{1 - 1i, 3},
	})
	if !h.IsHermitian(1e-12) {
		t.Errorf("Hermitian matrix not recognized")
	}

	notH := MustFromRows([][]complex128{
		{2, 1 + 1i},
		{1 + 1i, 3},
	})
	if notH.IsHermitian(1e-12) {
		t.Errorf("non-Hermitian matrix recognized as Hermitian")
	}

	complexDiag := MustFromRows([][]complex128{
		{2 + 0.5i, 0},
		{0, 3},
	})
	if complexDiag.IsHermitian(1e-12) {
		t.Errorf("matrix with complex diagonal recognized as Hermitian")
	}

	rect := New(2, 3)
	if rect.IsHermitian(1e-12) {
		t.Errorf("rectangular matrix recognized as Hermitian")
	}
}

func TestHermitize(t *testing.T) {
	m := MustFromRows([][]complex128{
		{2 + 1e-3i, 1 + 1i},
		{0.9 - 1.1i, 3},
	})
	m.Hermitize()
	if !m.IsHermitian(0) {
		t.Fatalf("Hermitize did not produce an exactly Hermitian matrix:\n%v", m)
	}
	// The (0,1) entry must be the average of a01 and conj(a10).
	want := (complex(1, 1) + complex(0.9, 1.1)) / 2
	if got := m.At(0, 1); math.Abs(real(got-want)) > 1e-15 || math.Abs(imag(got-want)) > 1e-15 {
		t.Errorf("Hermitize (0,1) = %v, want %v", got, want)
	}
}

func TestHermitizePanicsOnRectangular(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Hermitize on rectangular matrix did not panic")
		}
	}()
	New(2, 3).Hermitize()
}

func TestEqualApprox(t *testing.T) {
	a := MustFromRows([][]complex128{{1, 2}, {3, 4}})
	b := MustFromRows([][]complex128{{1 + 1e-12, 2}, {3, 4}})
	if !EqualApprox(a, b, 1e-9) {
		t.Errorf("EqualApprox rejected nearly equal matrices")
	}
	if EqualApprox(a, b, 1e-15) {
		t.Errorf("EqualApprox accepted matrices beyond tolerance")
	}
	c := New(2, 3)
	if EqualApprox(a, c, 1) {
		t.Errorf("EqualApprox accepted different shapes")
	}
}

func TestStringContainsEntries(t *testing.T) {
	m := MustFromRows([][]complex128{{1.5 + 0.5i}})
	s := m.String()
	if !strings.Contains(s, "1.5") || !strings.Contains(s, "0.5") {
		t.Errorf("String() = %q does not mention entries", s)
	}
}
