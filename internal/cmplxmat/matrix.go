// Package cmplxmat provides dense complex matrix algebra for the correlated
// Rayleigh fading generator: Hermitian eigendecomposition, Cholesky
// factorization, the blocked coloring GEMM and the norms needed to validate
// covariance matrices. It is self-contained (standard library only) and
// tuned for the moderate matrix sizes that occur in fading simulation (tens
// to a few hundred envelopes).
package cmplxmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
//
// The zero value is not usable; construct matrices with New, Identity,
// FromRows, Diag or one of the factorization results.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// ErrDimension reports incompatible matrix dimensions.
var ErrDimension = errors.New("cmplxmat: dimension mismatch")

// New returns an r-by-c zero matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("cmplxmat: non-positive dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]complex128, r*c)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from a slice of equally sized rows. The data is
// copied.
func FromRows(rows [][]complex128) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("cmplxmat: FromRows with no rows: %w", ErrDimension)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("cmplxmat: row %d has %d columns, want %d: %w", i, len(row), c, ErrDimension)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// MustFromRows is FromRows but panics on error. Intended for literals in
// tests and examples.
func MustFromRows(rows [][]complex128) *Matrix {
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// DiagReal returns a square diagonal matrix with real diagonal entries.
func DiagReal(d []float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, complex(v, 0))
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns the matrix dimensions (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmplxmat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []complex128 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("cmplxmat: row %d out of range", i))
	}
	out := make([]complex128, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// DiagVals returns a copy of the main diagonal.
func (m *Matrix) DiagVals() []complex128 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		out[i] = m.At(i, i)
	}
	return out
}

// String renders the matrix with %g formatting, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString("  ")
			}
			v := m.At(i, j)
			fmt.Fprintf(&b, "(%+.6g%+.6gi)", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// IsHermitian reports whether the matrix is Hermitian within tolerance tol,
// i.e. |a_ij - conj(a_ji)| <= tol for all i, j.
func (m *Matrix) IsHermitian(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	for i := 0; i < m.rows; i++ {
		if math.Abs(imag(m.At(i, i))) > tol {
			return false
		}
		for j := i + 1; j < m.cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// Hermitize overwrites the matrix with (A + Aᴴ)/2, its nearest Hermitian
// matrix in the Frobenius norm. It panics if the matrix is not square.
func (m *Matrix) Hermitize() {
	if !m.IsSquare() {
		panic("cmplxmat: Hermitize requires a square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.Set(i, i, complex(real(m.At(i, i)), 0))
		for j := i + 1; j < m.cols; j++ {
			avg := (m.At(i, j) + cmplx.Conj(m.At(j, i))) / 2
			m.Set(i, j, avg)
			m.Set(j, i, cmplx.Conj(avg))
		}
	}
}

// EqualApprox reports whether the two matrices have the same shape and all
// entries differ by at most tol in absolute value.
func EqualApprox(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if cmplx.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
