package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
)

// A kernel is one frozen reference computation. The timed phases bracket
// every workload slice with kernel slices; the kernel's measured rate tracks
// how fast the host runs at that moment, and dividing it out removes host
// drift from the workload's numbers. The kernels are copies, not calls into
// the repository, so no change to the program can change what they measure;
// bench_test.go pins a digest of each kernel's output.
//
// Each instance owns its buffers, so a probe on g goroutines uses g
// instances. rep performs one repetition and returns a value derived from its
// output, which the caller keeps so the work cannot be optimized away.
type kernel interface {
	rep() float64
	// digest hashes the output of the most recent rep.
	digest() uint64
}

// lcg is the fixed generator that fills kernel inputs: the inputs never
// change, whatever the workload seed.
type lcg uint64

func (x *lcg) next() float64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return float64(uint64(*x)>>11)/(1<<53) - 0.5
}

// ifftKernel is the paper-eq22 reference: a radix-2 complex IFFT of 4096
// points on each of 3 rows, followed by a magnitude pass — the shape of the
// Doppler IDFT and envelope stages of one Eq. (22) block.
type ifftKernel struct {
	input, work [][]complex128
	mag         []float64
	tw          []complex128 // e^{+2πik/n} for k < n/2
	rev         []int
}

func newIFFTKernel() kernel {
	const n, rows, logN = 4096, 3, 12
	k := &ifftKernel{tw: make([]complex128, n/2), rev: make([]int, n), mag: make([]float64, rows*n)}
	for i := range k.tw {
		s, c := math.Sincos(2 * math.Pi * float64(i) / n)
		k.tw[i] = complex(c, s)
	}
	for i := range k.rev {
		k.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	x := lcg(1)
	for r := 0; r < rows; r++ {
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(x.next(), x.next())
		}
		k.input = append(k.input, in)
		k.work = append(k.work, make([]complex128, n))
	}
	return k
}

func (k *ifftKernel) rep() float64 {
	var sum float64
	for r, in := range k.input {
		w := k.work[r]
		for i, j := range k.rev {
			w[j] = in[i]
		}
		n := len(w)
		for size := 2; size <= n; size <<= 1 {
			half, step := size/2, n/size
			for start := 0; start < n; start += size {
				for j := 0; j < half; j++ {
					t := k.tw[j*step] * w[start+j+half]
					u := w[start+j]
					w[start+j] = u + t
					w[start+j+half] = u - t
				}
			}
		}
		mag := k.mag[r*n : (r+1)*n]
		for i, v := range w {
			re, im := real(v)/float64(n), imag(v)/float64(n)
			mag[i] = math.Sqrt(re*re + im*im)
			sum += mag[i]
		}
	}
	return sum
}

func (k *ifftKernel) digest() uint64 { return digestFloats(k.mag) }

// invGammaKernel is the nakagami-eq22 reference: the series/continued-fraction
// inverse regularized gamma function at m = 2.5 over a fixed uniform grid,
// the per-sample cost of the Nakagami-m transform.
type invGammaKernel struct {
	grid, out []float64
}

func newInvGammaKernel() kernel {
	const points = 256
	k := &invGammaKernel{grid: make([]float64, points), out: make([]float64, points)}
	for i := range k.grid {
		k.grid[i] = (float64(i) + 0.5) / points
	}
	return k
}

func (k *invGammaKernel) rep() float64 {
	var sum float64
	for i, p := range k.grid {
		k.out[i] = frozenInverseGammaP(2.5, p)
		sum += k.out[i]
	}
	return sum
}

func (k *invGammaKernel) digest() uint64 { return digestFloats(k.out) }

// gemmKernel is the churn-n32 reference: a real 32×32 by complex 32×4096
// product, the shape of the real coloring GEMM of an N = 32 block.
type gemmKernel struct {
	l    []float64    // 32×32, row-major
	w, z []complex128 // 32×4096, row-major
}

const gemmN, gemmM = 32, 4096

func newGEMMKernel() kernel {
	k := &gemmKernel{l: make([]float64, gemmN*gemmN), w: make([]complex128, gemmN*gemmM), z: make([]complex128, gemmN*gemmM)}
	x := lcg(2)
	for i := range k.l {
		k.l[i] = x.next()
	}
	for i := range k.w {
		k.w[i] = complex(x.next(), x.next())
	}
	return k
}

// gemmPanel is the column-panel width: a panel of W and of four Z rows stays
// in L1 while the 32 accumulation passes run over it.
const gemmPanel = 128

func (k *gemmKernel) rep() float64 {
	for j0 := 0; j0 < gemmM; j0 += gemmPanel {
		j1 := j0 + gemmPanel
		for i := 0; i < gemmN; i += 4 {
			z0 := k.z[i*gemmM+j0 : i*gemmM+j1]
			z1 := k.z[(i+1)*gemmM+j0 : (i+1)*gemmM+j1]
			z2 := k.z[(i+2)*gemmM+j0 : (i+2)*gemmM+j1]
			z3 := k.z[(i+3)*gemmM+j0 : (i+3)*gemmM+j1]
			for q := range z0 {
				z0[q], z1[q], z2[q], z3[q] = 0, 0, 0, 0
			}
			for c := 0; c < gemmN; c++ {
				l0, l1 := k.l[i*gemmN+c], k.l[(i+1)*gemmN+c]
				l2, l3 := k.l[(i+2)*gemmN+c], k.l[(i+3)*gemmN+c]
				for q, wv := range k.w[c*gemmM+j0 : c*gemmM+j1] {
					wr, wi := real(wv), imag(wv)
					z0[q] += complex(l0*wr, l0*wi)
					z1[q] += complex(l1*wr, l1*wi)
					z2[q] += complex(l2*wr, l2*wi)
					z3[q] += complex(l3*wr, l3*wi)
				}
			}
		}
	}
	return real(k.z[0]) + imag(k.z[len(k.z)-1])
}

func (k *gemmKernel) digest() uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, v := range k.z {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

func digestFloats(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// frozenInverseGammaP solves P(a, x) = p for x: an asymptotic starting guess
// refined by Halley iterations (Numerical Recipes 6.2.1). It is a frozen copy
// of the repository's implementation at the time this benchmark landed.
func frozenInverseGammaP(a, p float64) float64 {
	if a <= 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Max(100, a+100*math.Sqrt(a))
	}
	gln, _ := math.Lgamma(a)
	a1 := a - 1
	var x, lna1, afac float64
	if a > 1 {
		lna1 = math.Log(a1)
		afac = math.Exp(a1*(lna1-1) - gln)
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753+t*0.27061)/(1+t*(0.99229+t*0.04481)) - t
		if p < 0.5 {
			x = -x
		}
		x = math.Max(1e-3, a*math.Pow(1-1/(9*a)-x/(3*math.Sqrt(a)), 3))
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}
	for j := 0; j < 12; j++ {
		if x <= 0 {
			return 0
		}
		err := frozenGammaP(a, x) - p
		var t float64
		if a > 1 {
			t = afac * math.Exp(-(x-a1)+a1*(math.Log(x)-lna1))
		} else {
			t = math.Exp(-x + a1*math.Log(x) - gln)
		}
		u := err / t
		t = u / (1 - 0.5*math.Min(1, u*((a-1)/x-1)))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if math.Abs(t) < 1e-11*x {
			break
		}
	}
	return x
}

// frozenGammaP is the regularized lower incomplete gamma function P(a, x).
func frozenGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return frozenGammaSeries(a, x)
	}
	return 1 - frozenGammaCF(a, x)
}

// frozenGammaSeries evaluates P(a, x) by its power series.
func frozenGammaSeries(a, x float64) float64 {
	lgA, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgA)
}

// frozenGammaCF evaluates Q(a, x) by the Lentz continued fraction.
func frozenGammaCF(a, x float64) float64 {
	lgA, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lgA) * h
}
