package cmplxmat

import (
	"errors"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func TestRowViewSharesBacking(t *testing.T) {
	m := MustFromRows([][]complex128{{1, 2}, {3, 4}})
	row := m.RowView(1)
	if row[0] != 3 || row[1] != 4 {
		t.Fatalf("RowView(1) = %v", row)
	}
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Errorf("write through RowView not visible: At(1,0) = %v", m.At(1, 0))
	}
	// The three-index slice must not allow growth into the next row.
	if cap(row) != 2 {
		t.Errorf("RowView cap = %d, want 2", cap(row))
	}
}

func TestColorBlockMatchesColumnwiseMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range []struct{ n, m int }{{1, 1}, {3, 7}, {4, 128}, {5, 300}, {16, 129}} {
		l := randomMatrix(rng, dims.n, dims.n)
		w := randomMatrix(rng, dims.n, dims.m)
		z := New(dims.n, dims.m)
		if err := ColorBlock(l, w, z); err != nil {
			t.Fatalf("ColorBlock(%d,%d): %v", dims.n, dims.m, err)
		}
		x := make([]complex128, dims.n)
		for col := 0; col < dims.m; col++ {
			for i := 0; i < dims.n; i++ {
				x[i] = w.At(i, col)
			}
			want := mustMulVec(l, x)
			for i := 0; i < dims.n; i++ {
				if z.At(i, col) != want[i] {
					t.Fatalf("n=%d m=%d entry (%d,%d): %v vs %v", dims.n, dims.m, i, col, z.At(i, col), want[i])
				}
			}
		}
	}
}

func TestColorBlockRealColoringFastPath(t *testing.T) {
	// Purely real coloring entries take specialized two-multiply kernels that
	// must stay bit-identical to the generic complex kernel (same operations
	// accumulated in the same order).
	rng := rand.New(rand.NewSource(23))
	// Narrow and wide kernels; n = 7 runs every narrow tile (4-row, 2×2, odd row).
	for _, dims := range []struct{ n, m int }{{6, 64}, {6, 200}, {7, 64}} {
		n, m := dims.n, dims.m
		lc := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				lc.Set(i, j, complex(rng.NormFloat64(), 0))
			}
		}
		w := randomMatrix(rng, n, m)
		z := New(n, m)
		if err := ColorBlock(lc, w, z); err != nil {
			t.Fatalf("ColorBlock: %v", err)
		}
		want := New(n, m)
		for j0 := 0; j0 < m; j0 += colorBlockCols {
			j1 := j0 + colorBlockCols
			if j1 > m {
				j1 = m
			}
			colorPanelCmplx(lc.data, w.data, want.data, n, m, j0, j1)
		}
		for col := 0; col < m; col++ {
			for i := 0; i < n; i++ {
				if z.At(i, col) != want.At(i, col) {
					t.Fatalf("n=%d m=%d entry (%d,%d): %v vs %v", n, m, i, col, z.At(i, col), want.At(i, col))
				}
			}
		}
	}
}

func TestColorBlockDimensionErrors(t *testing.T) {
	if err := ColorBlock(New(2, 3), New(3, 4), New(2, 4)); !errors.Is(err, ErrDimension) {
		t.Errorf("non-square L: err = %v", err)
	}
	if err := ColorBlock(Identity(3), New(2, 4), New(3, 4)); !errors.Is(err, ErrDimension) {
		t.Errorf("W row mismatch: err = %v", err)
	}
	if err := ColorBlock(Identity(3), New(3, 4), New(3, 5)); !errors.Is(err, ErrDimension) {
		t.Errorf("Z shape mismatch: err = %v", err)
	}
}

func TestIntoKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randomMatrix(rng, 8, 8)
	w := randomMatrix(rng, 8, 256)
	z := New(8, 256)
	if n := testing.AllocsPerRun(100, func() {
		if err := ColorBlock(a, w, z); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ColorBlock allocates %v per run", n)
	}
}

func TestViewSharesLeadingStorage(t *testing.T) {
	data := make([]complex128, 12)
	v := View(2, 5, data)
	if r, c := v.Rows(), v.Cols(); r != 2 || c != 5 {
		t.Fatalf("View dims %dx%d, want 2x5", r, c)
	}
	v.Set(1, 4, 7)
	if data[9] != 7 {
		t.Errorf("write through View not visible in data: %v", data)
	}
	if len(v.Data()) != 10 || cap(v.Data()) != 10 {
		t.Errorf("View backing len/cap %d/%d, want 10/10", len(v.Data()), cap(v.Data()))
	}
	defer func() {
		if recover() == nil {
			t.Errorf("View over too little data did not panic")
		}
	}()
	View(3, 5, data)
}
