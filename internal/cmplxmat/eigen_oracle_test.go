package cmplxmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// oracleC is the constant of the eigensolver's accuracy bounds. The worst
// case over the oracle's inputs is recorded in CHANGES.md; oracleC keeps at
// least 10× headroom over it.
const oracleC = 100

// TestEigenHermitianAccuracyOracle decomposes matrices of known spectrum,
// K = Q·diag(λ)·Qᴴ with Q a product of seeded Householder reflectors, at
// N ∈ {2, 8, 32, 64}, each spectrum in real-symmetric and complex Hermitian
// form, and checks with ε = 2⁻⁵² and c = oracleC:
//
//	|λ̂ᵢ − λᵢ|     ≤ c·N·ε·‖K‖_F
//	‖KV − VΛ̂‖_F  ≤ c·N·ε·‖K‖_F
//	‖VᴴV − I‖_F  ≤ c·N·ε
//
// A faster eigensolver that does not keep the current one's bits must keep
// these bounds.
func TestEigenHermitianAccuracyOracle(t *testing.T) {
	const eps = 0x1p-52
	spectra := []struct {
		name string
		of   func(n int) []float64
	}{
		// Condition number 1e12.
		{"geometric 1 to 1e-12", func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Pow(1e-12, float64(i)/float64(n-1))
			}
			return out
		}},
		// Two clusters of N/2 eigenvalues, 2e-10 apart.
		{"clustered pairs 1 ± 1e-10", func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 1 + float64(2*(i%2)-1)*1e-10
			}
			return out
		}},
		// Rank N/2.
		{"half zeros", func(n int) []float64 {
			out := make([]float64, n)
			for i := n / 2; i < n; i++ {
				out[i] = float64(i-n/2+1) / float64(n-n/2)
			}
			return out
		}},
		{"indefinite -0.5 to 1", func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = -0.5 + 1.5*float64(i)/float64(n-1)
			}
			return out
		}},
	}
	var worstValue, worstResidual, worstOrth float64
	for _, n := range []int{2, 8, 32, 64} {
		for si, sp := range spectra {
			for ci, complexQ := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(100*n + 10*si + ci)))
				lambda := sp.of(n)
				q := householderProduct(rng, n, complexQ)
				k := MustMul(MustMul(q, diagReal(lambda)), ConjTranspose(q))
				k.Hermitize()
				e, err := EigenHermitian(k)
				if err != nil {
					t.Fatalf("N=%d %s complex=%v: %v", n, sp.name, complexQ, err)
				}
				normK := FrobeniusNorm(k)
				unit := float64(n) * eps
				sort.Float64s(lambda)
				var valueErr float64
				for i, l := range lambda {
					valueErr = math.Max(valueErr, math.Abs(e.Values[i]-l))
				}
				residual := FrobeniusDistance(MustMul(k, e.Vectors), MustMul(e.Vectors, diagReal(e.Values)))
				orth := FrobeniusDistance(MustMul(ConjTranspose(e.Vectors), e.Vectors), Identity(n))
				rv, rr, ro := valueErr/(unit*normK), residual/(unit*normK), orth/unit
				worstValue, worstResidual, worstOrth = math.Max(worstValue, rv), math.Max(worstResidual, rr), math.Max(worstOrth, ro)
				if rv > oracleC || rr > oracleC || ro > oracleC {
					t.Errorf("N=%d %s complex=%v: in units of N·ε(·‖K‖_F) eigenvalue error %.3g, residual %.3g, orthogonality %.3g; bound %g",
						n, sp.name, complexQ, rv, rr, ro, float64(oracleC))
				}
			}
		}
	}
	t.Logf("worst case in units of N·ε(·‖K‖_F): eigenvalue error %.3g, residual %.3g, orthogonality %.3g",
		worstValue, worstResidual, worstOrth)
}

// householderProduct returns Q = H₁·H₂⋯H_N, Hₖ = I − 2·uuᴴ/(uᴴu) for seeded
// Gaussian u, real or complex: a random orthogonal or unitary matrix.
func householderProduct(rng *rand.Rand, n int, complexQ bool) *Matrix {
	q := Identity(n)
	u := make([]complex128, n)
	qu := make([]complex128, n)
	for range n {
		var uu float64
		for i := range u {
			u[i] = complex(rng.NormFloat64(), 0)
			if complexQ {
				u[i] = complex(real(u[i]), rng.NormFloat64())
			}
			uu += real(u[i])*real(u[i]) + imag(u[i])*imag(u[i])
		}
		// Q ← Q·H = Q − (2/uᴴu)·(Q·u)·uᴴ.
		for i := range qu {
			var s complex128
			for j, uj := range u {
				s += q.data[i*n+j] * uj
			}
			qu[i] = s * complex(2/uu, 0)
		}
		for i := range qu {
			for j, uj := range u {
				q.data[i*n+j] -= qu[i] * cmplx.Conj(uj)
			}
		}
	}
	return q
}
