package baseline

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/randx"
)

// batchChunkSize is the number of snapshots drawn from one derived stream in
// GenerateBatchInto, matching the core engine's chunk size so the methods are
// benchmarkable on equal footing. As in the core engine, chunk c draws from
// the (c+1)-th split of the batch root: chunks are visited in index order and
// a reused RNG is reseeded with root.SplitSeed() for each, which reproduces
// root.Split() without allocating a child.
const batchChunkSize = 64

// colorBatch is the shared batched engine of the coloring-based methods
// (Cholesky, real-forced Cholesky, ε-eigen): the chunk's raw samples are
// drawn row by row into a rows×chunk W panel, the whole panel is colored with
// one ColorBlock GEMM, and the colored columns scatter out with their
// envelopes. For Salz–Winters the panel is the real 2N-dimensional sample
// space and the scatter reassembles the complex vector, so even the real
// coloring runs through the same GEMM kernel.
type colorBatch struct {
	coloring *cmplxmat.Matrix
	w, z     *cmplxmat.Matrix
	wRows    [][]complex128
	// rng is reseeded for every chunk (see batchChunkSize).
	rng *randx.RNG
	// fRow is the real-sample scratch of the Salz–Winters fill (nil for the
	// complex methods).
	fRow []float64
}

// reset (re)shapes the batch panels for a coloring matrix with the given row
// dimension, allocating once per Setup.
func (cb *colorBatch) reset(coloring *cmplxmat.Matrix, realSamples bool) {
	rows := coloring.Rows()
	cb.coloring = coloring
	cb.w = cmplxmat.New(rows, batchChunkSize)
	cb.z = cmplxmat.New(rows, batchChunkSize)
	cb.wRows = make([][]complex128, rows)
	for k := 0; k < rows; k++ {
		cb.wRows[k] = cb.w.RowView(k)
	}
	if cb.rng == nil {
		cb.rng = randx.New(0)
	}
	if realSamples {
		cb.fRow = make([]float64, batchChunkSize)
	} else {
		cb.fRow = nil
	}
}

// ready reports whether Setup has installed a coloring matrix.
func (cb *colorBatch) ready() bool { return cb.coloring != nil }

// checkBatchDst validates the destination shape shared by every
// GenerateBatchInto implementation.
func checkBatchDst(n int, gaussian [][]complex128, env [][]float64) error {
	if len(gaussian) == 0 || len(gaussian) != len(env) {
		return fmt.Errorf("baseline: batch destinations %d/%d snapshots: %w", len(gaussian), len(env), ErrUnsupported)
	}
	for i := range gaussian {
		if len(gaussian[i]) != n || len(env[i]) != n {
			return fmt.Errorf("baseline: snapshot %d destination lengths %d/%d, want %d: %w",
				i, len(gaussian[i]), len(env[i]), n, ErrUnsupported)
		}
	}
	return nil
}

// generateBatch runs the chunked ColorBlock path for a complex n×n coloring:
// sample k of snapshot ci is draw k·cols+ci of the chunk stream (contiguous
// row fills, no gather).
func (cb *colorBatch) generateBatch(n int, root *randx.RNG, gaussian [][]complex128, env [][]float64) error {
	if !cb.ready() {
		return fmt.Errorf("baseline: GenerateBatchInto before successful Setup: %w", ErrSetupFailed)
	}
	if err := checkBatchDst(n, gaussian, env); err != nil {
		return err
	}
	for lo := 0; lo < len(gaussian); lo += batchChunkSize {
		hi := min(lo+batchChunkSize, len(gaussian))
		cb.rng.Reseed(root.SplitSeed())
		cols := hi - lo
		for _, row := range cb.wRows {
			cb.rng.FillComplexNormal(row[:cols], 1)
		}
		// Panel dimensions are fixed at Setup, so ColorBlock cannot fail.
		_ = cmplxmat.ColorBlock(cb.coloring, cb.w, cb.z)
		zd := cb.z.Data()
		for ci := 0; ci < cols; ci++ {
			gi := gaussian[lo+ci]
			ei := env[lo+ci]
			idx := ci
			for k := 0; k < n; k++ {
				v := zd[idx]
				idx += batchChunkSize
				gi[k] = v
				ei[k] = envAbs(v)
			}
		}
	}
	return nil
}

// generateBatchReal2N runs the chunked path for the Salz–Winters real
// 2N-dimensional coloring: the 2N panel rows hold unit real Gaussians (stored
// as purely real complex values so the real ColorBlock kernel applies), and
// the scatter reassembles z_j = x_j + i·y_j from rows j and n+j.
func (cb *colorBatch) generateBatchReal2N(n int, root *randx.RNG, gaussian [][]complex128, env [][]float64) error {
	if !cb.ready() {
		return fmt.Errorf("baseline: GenerateBatchInto before successful Setup: %w", ErrSetupFailed)
	}
	if err := checkBatchDst(n, gaussian, env); err != nil {
		return err
	}
	for lo := 0; lo < len(gaussian); lo += batchChunkSize {
		hi := min(lo+batchChunkSize, len(gaussian))
		cb.rng.Reseed(root.SplitSeed())
		cols := hi - lo
		for _, row := range cb.wRows {
			f := cb.fRow[:cols]
			cb.rng.FillNormal(f, 1)
			for q, v := range f {
				row[q] = complex(v, 0)
			}
		}
		_ = cmplxmat.ColorBlock(cb.coloring, cb.w, cb.z)
		zd := cb.z.Data()
		for ci := 0; ci < cols; ci++ {
			gi := gaussian[lo+ci]
			ei := env[lo+ci]
			for k := 0; k < n; k++ {
				v := complex(real(zd[k*batchChunkSize+ci]), real(zd[(n+k)*batchChunkSize+ci]))
				gi[k] = v
				ei[k] = envAbs(v)
			}
		}
	}
	return nil
}

// checkIntoDst validates the single-snapshot destination shape.
func checkIntoDst(n int, gaussian []complex128, env []float64) error {
	if len(gaussian) != n || len(env) != n {
		return fmt.Errorf("baseline: destination lengths %d/%d for %d envelopes: %w",
			len(gaussian), len(env), n, ErrUnsupported)
	}
	return nil
}

// envAbs is |z| via a plain sqrt, matching the core engine's envelope kernel.
func envAbs(v complex128) float64 {
	re, im := real(v), imag(v)
	return math.Sqrt(re*re + im*im)
}
