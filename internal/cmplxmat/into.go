package cmplxmat

import "fmt"

// This file holds the destination-passing kernels of the zero-allocation
// generation engine. They write into caller-supplied storage so
// steady-state hot loops never touch the heap.

// RowView returns row i as a slice sharing the matrix backing array. Writes
// through the returned slice are visible in the matrix; the slice stays valid
// for the lifetime of the matrix.
func (m *Matrix) RowView(i int) []complex128 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("cmplxmat: row %d out of range", i))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Data returns the row-major backing array of the matrix (shared, not a
// copy). It exists for hot scatter/gather loops that index the storage with
// an explicit stride; everything else should go through At/Set/RowView.
func (m *Matrix) Data() []complex128 { return m.data }

// View returns an r×c matrix over the leading r·c entries of data, sharing
// that storage (writes through either are visible in both). It lets several
// narrower shapes reuse one workspace, as the real-time generator's band
// panels do across Doppler segments of different bandwidths.
func View(r, c int, data []complex128) *Matrix {
	if r <= 0 || c <= 0 || len(data) < r*c {
		panic(fmt.Sprintf("cmplxmat: View %dx%d over %d entries", r, c, len(data)))
	}
	return &Matrix{rows: r, cols: c, data: data[: r*c : r*c]}
}

// colorBlockCols is the column-panel width of ColorBlock. A panel of W plus
// the matching panel of Z stays resident in L1 while the n accumulation
// passes over it run (128 columns × 16 bytes = 2 KiB per row).
const colorBlockCols = 128

// ColorBlock computes Z = L·W as one cache-blocked matrix-matrix product.
// L is the n×n coloring matrix, W an n×m block whose column l is the raw
// sample vector at time instant l, and Z the n×m destination. This turns the
// per-instant coloring loop of the real-time generator (m independent
// mat-vec products) into a single GEMM over flat backing arrays: W's rows are
// streamed with unit stride through a register-blocked kernel, so throughput
// is bounded by arithmetic rather than call and allocation overhead. When
// every entry of L is purely real (the case for every real-valued covariance
// target) a two-multiply-per-sample kernel runs instead of the full complex
// product; its results are bit-identical to the generic kernel's. Z must not
// alias L or W.
//
// fadinglint:allocfree
func ColorBlock(l, w, z *Matrix) error {
	if !l.IsSquare() {
		return fmt.Errorf("cmplxmat: ColorBlock coloring matrix %dx%d not square: %w", l.rows, l.cols, ErrDimension)
	}
	n := l.rows
	if w.rows != n {
		return fmt.Errorf("cmplxmat: ColorBlock sample block has %d rows, want %d: %w", w.rows, n, ErrDimension)
	}
	if z.rows != n || z.cols != w.cols {
		return fmt.Errorf("cmplxmat: ColorBlock destination %dx%d, want %dx%d: %w", z.rows, z.cols, n, w.cols, ErrDimension)
	}
	m := w.cols
	allReal := true
	for _, v := range l.data {
		if imag(v) != 0 {
			allReal = false
			break
		}
	}
	for j0 := 0; j0 < m; j0 += colorBlockCols {
		j1 := j0 + colorBlockCols
		if j1 > m {
			j1 = m
		}
		switch {
		case allReal && m > colorBlockCols:
			colorPanelRealWide(l.data, w.data, z.data, n, m, j0, j1)
		case allReal:
			colorPanelReal(l.data, w.data, z.data, n, m, j0, j1)
		default:
			colorPanelCmplx(l.data, w.data, z.data, n, m, j0, j1)
		}
	}
	return nil
}

// colorPanelRealWide accumulates one column panel of Z = L·W for purely real
// L by streaming W rows with unit stride and updating four output rows per
// sweep. It is the kernel of choice for wide blocks (the real-time path,
// where m is the IDFT length): with large power-of-two m the columns of W
// are far apart, so the k-strided tile kernel below would thrash a single L1
// set, while this form is prefetch-friendly. Accumulation order over k is
// unchanged, so results match the generic kernel bit for bit.
func colorPanelRealWide(ld, wd, zd []complex128, n, m, j0, j1 int) {
	width := j1 - j0
	i := 0
	for ; i+4 <= n; i += 4 {
		z0 := zd[i*m+j0 : i*m+j1 : i*m+j1]
		z1 := zd[(i+1)*m+j0 : (i+1)*m+j1 : (i+1)*m+j1]
		z2 := zd[(i+2)*m+j0 : (i+2)*m+j1 : (i+2)*m+j1]
		z3 := zd[(i+3)*m+j0 : (i+3)*m+j1 : (i+3)*m+j1]
		for q := 0; q < width; q++ {
			z0[q], z1[q], z2[q], z3[q] = 0, 0, 0, 0
		}
		for k := 0; k < n; k++ {
			l0 := real(ld[i*n+k])
			l1 := real(ld[(i+1)*n+k])
			l2 := real(ld[(i+2)*n+k])
			l3 := real(ld[(i+3)*n+k])
			if l0 == 0 && l1 == 0 && l2 == 0 && l3 == 0 {
				continue
			}
			wrow := wd[k*m+j0 : k*m+j1 : k*m+j1]
			for q, wv := range wrow {
				wr, wi := real(wv), imag(wv)
				z0[q] += complex(l0*wr, l0*wi)
				z1[q] += complex(l1*wr, l1*wi)
				z2[q] += complex(l2*wr, l2*wi)
				z3[q] += complex(l3*wr, l3*wi)
			}
		}
	}
	for ; i < n; i++ {
		zrow := zd[i*m+j0 : i*m+j1 : i*m+j1]
		for q := range zrow {
			zrow[q] = 0
		}
		for k := 0; k < n; k++ {
			lr := real(ld[i*n+k])
			if lr == 0 {
				continue
			}
			wrow := wd[k*m+j0 : k*m+j1 : k*m+j1]
			for q, wv := range wrow {
				zrow[q] += complex(lr*real(wv), lr*imag(wv))
			}
		}
	}
}

// colorPanelReal accumulates one column panel of Z = L·W for purely real L
// with register tiles. Blocks of four output rows take one column at a time
// with float accumulators, so each W element loaded feeds eight
// multiply-adds; the remaining rows go through a 2×2 tile (two rows × two
// columns), and a last odd row one column at a time. Each tile keeps its
// accumulators in registers across the full k sweep instead of a z
// load/store pair per element-op, so the kernel is arithmetic-bound rather
// than memory-uop-bound. Used for narrow blocks (batched snapshot panels),
// where the k stride is small enough that the W panel stays L1-resident
// without set aliasing. Accumulation order over k is unchanged (one
// ascending chain per output entry), so results match the generic kernel
// bit for bit.
func colorPanelReal(ld, wd, zd []complex128, n, m, j0, j1 int) {
	i := 0
	for ; i+4 <= n; i += 4 {
		l0 := ld[i*n : (i+1)*n : (i+1)*n]
		l1 := ld[(i+1)*n : (i+2)*n : (i+2)*n][:len(l0)]
		l2 := ld[(i+2)*n : (i+3)*n : (i+3)*n][:len(l0)]
		l3 := ld[(i+3)*n : (i+4)*n : (i+4)*n][:len(l0)]
		z0 := zd[i*m+j0 : i*m+j1 : i*m+j1]
		z1 := zd[(i+1)*m+j0 : (i+1)*m+j1 : (i+1)*m+j1][:len(z0)]
		z2 := zd[(i+2)*m+j0 : (i+2)*m+j1 : (i+2)*m+j1][:len(z0)]
		z3 := zd[(i+3)*m+j0 : (i+3)*m+j1 : (i+3)*m+j1][:len(z0)]
		for q := range z0 {
			var r0, i0, r1, i1, r2, i2, r3, i3 float64
			idx := j0 + q
			for k, lv := range l0 {
				wv := wd[idx]
				idx += m
				wr, wi := real(wv), imag(wv)
				c0, c1, c2, c3 := real(lv), real(l1[k]), real(l2[k]), real(l3[k])
				r0 += c0 * wr
				i0 += c0 * wi
				r1 += c1 * wr
				i1 += c1 * wi
				r2 += c2 * wr
				i2 += c2 * wi
				r3 += c3 * wr
				i3 += c3 * wi
			}
			z0[q], z1[q] = complex(r0, i0), complex(r1, i1)
			z2[q], z3[q] = complex(r2, i2), complex(r3, i3)
		}
	}
	for ; i+2 <= n; i += 2 {
		l0 := ld[i*n : (i+1)*n : (i+1)*n]
		l1 := ld[(i+1)*n : (i+2)*n : (i+2)*n]
		z0 := zd[i*m+j0 : i*m+j1 : i*m+j1]
		z1 := zd[(i+1)*m+j0 : (i+1)*m+j1 : (i+1)*m+j1]
		q := 0
		for ; q+2 <= len(z0); q += 2 {
			var a00, a01, a10, a11 complex128
			idx := j0 + q
			for k := 0; k < n; k++ {
				w0 := wd[idx]
				w1 := wd[idx+1]
				idx += m
				c0 := real(l0[k])
				c1 := real(l1[k])
				a00 += complex(c0*real(w0), c0*imag(w0))
				a01 += complex(c0*real(w1), c0*imag(w1))
				a10 += complex(c1*real(w0), c1*imag(w0))
				a11 += complex(c1*real(w1), c1*imag(w1))
			}
			z0[q], z0[q+1] = a00, a01
			z1[q], z1[q+1] = a10, a11
		}
		for ; q < len(z0); q++ {
			var a0, a1 complex128
			idx := j0 + q
			for k := 0; k < n; k++ {
				wv := wd[idx]
				idx += m
				a0 += complex(real(l0[k])*real(wv), real(l0[k])*imag(wv))
				a1 += complex(real(l1[k])*real(wv), real(l1[k])*imag(wv))
			}
			z0[q], z1[q] = a0, a1
		}
	}
	if i < n {
		lrow := ld[i*n : (i+1)*n : (i+1)*n]
		zrow := zd[i*m+j0 : i*m+j1 : i*m+j1]
		for q := range zrow {
			var acc complex128
			idx := j0 + q
			for k := 0; k < n; k++ {
				wv := wd[idx]
				idx += m
				acc += complex(real(lrow[k])*real(wv), real(lrow[k])*imag(wv))
			}
			zrow[q] = acc
		}
	}
}

// colorPanelCmplx is the generic complex kernel, with the per-entry real
// shortcut kept for matrices that are only partially complex.
func colorPanelCmplx(ld, wd, zd []complex128, n, m, j0, j1 int) {
	for i := 0; i < n; i++ {
		zrow := zd[i*m+j0 : i*m+j1 : i*m+j1]
		for q := range zrow {
			zrow[q] = 0
		}
		lrow := ld[i*n : (i+1)*n]
		for k, lv := range lrow {
			if lv == 0 {
				continue
			}
			wrow := wd[k*m+j0 : k*m+j1 : k*m+j1]
			if imag(lv) == 0 {
				lr := real(lv)
				for q, wv := range wrow {
					zrow[q] += complex(lr*real(wv), lr*imag(wv))
				}
				continue
			}
			for q, wv := range wrow {
				zrow[q] += lv * wv
			}
		}
	}
}
