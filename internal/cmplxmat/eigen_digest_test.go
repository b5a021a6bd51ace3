package cmplxmat_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cmplxmat"
	"repro/internal/corrmodel"
)

// eigenDigest is the SHA-256 of the decompositions of digestInputs: for each
// input in order, math.Float64bits of every eigenvalue, then of the real and
// imaginary part of every eigenvector entry in row-major order, little
// endian. A change that should keep the eigensolver's bits must reproduce it;
// a change that moves them replaces it with a release note in CHANGES.md.
const eigenDigest = "55698f8946937b4d3031cec7f8eced2d1417e87af6254a22ecad13eb1d2b1409"

// TestEigenHermitianDigest pins the eigensolver's output bits, signs of zeros
// included, on amd64 (elsewhere the compiler may fuse multiply-adds). On a
// mismatch it prints the fresh digest.
func TestEigenHermitianDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the eigensolver digest is pinned on amd64; GOARCH is %s", runtime.GOARCH)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, in := range digestInputs(t) {
		e, err := cmplxmat.EigenHermitian(in.a)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, v := range e.Values {
			put(v)
		}
		for i := 0; i < e.Vectors.Rows(); i++ {
			for j := 0; j < e.Vectors.Cols(); j++ {
				v := e.Vectors.At(i, j)
				put(real(v))
				put(imag(v))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != eigenDigest {
		t.Fatalf("eigendecompositions differ from the pinned digest; fresh digest:\n%s", got)
	}
}

type digestInput struct {
	name string
	a    *cmplxmat.Matrix
}

// digestInputs are seeded real-symmetric and complex Hermitian matrices from
// N = 2 to 64, a tridiagonal one (exact zeros exercise the skipped pivots),
// and the exponential model at N = 32: real ρ as fadingd's churn-n32
// workload creates it, and one phase-rotated.
func digestInputs(t *testing.T) []digestInput {
	var out []digestInput
	for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 16, 23, 31, 32, 33, 48, 63, 64} {
		for k, complexEntries := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(2*n + k)))
			rows := make([][]complex128, n)
			for i := range rows {
				rows[i] = make([]complex128, n)
			}
			for i := 0; i < n; i++ {
				rows[i][i] = complex(rng.NormFloat64(), 0)
				for j := i + 1; j < n; j++ {
					v := complex(rng.NormFloat64(), 0)
					if complexEntries {
						v = complex(real(v), rng.NormFloat64())
					}
					rows[i][j] = v
					rows[j][i] = complex(real(v), -imag(v))
				}
			}
			out = append(out, digestInput{fmt.Sprintf("random N=%d complex=%v", n, complexEntries), cmplxmat.MustFromRows(rows)})
		}
	}
	tri := make([][]complex128, 16)
	for i := range tri {
		tri[i] = make([]complex128, 16)
		tri[i][i] = complex(float64(i%5)-2, 0)
		if i > 0 {
			tri[i][i-1] = complex(1, 0.5)
			tri[i-1][i] = complex(1, -0.5)
		}
	}
	out = append(out, digestInput{"tridiagonal N=16", cmplxmat.MustFromRows(tri)})
	for _, m := range []corrmodel.ExponentialModel{
		{N: 32, Rho: 0.05, Power: 1},
		{N: 32, Rho: 0.35, Power: 1},
		{N: 32, Rho: 0.8, Power: 1},
		{N: 32, Rho: 0.95, Power: 1},
		{N: 32, Rho: 0.8, PhaseRad: 0.3, Power: 1},
	} {
		res, err := m.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestInput{fmt.Sprintf("exponential ρ=%g θ=%g", m.Rho, m.PhaseRad), res.Matrix})
	}
	return out
}
