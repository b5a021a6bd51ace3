package doppler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/randx"
)

// blockIntoGolden pins Generator.BlockInto bit for bit: each entry hashes
// three consecutive blocks drawn from one RNG (SHA-256 over the IEEE-754
// bits of every real and imaginary part, little-endian). The digests were
// recorded on amd64 from the per-bin form (perBinBlockInto below), so the
// walk over the runs of taps must reproduce its Gaussian draw order and
// spectrum exactly. The cases cover the paper's M, the narrowest band
// (k_m = 1) and the widest valid one (2·k_m = M − 2).
var blockIntoGolden = []struct {
	spec FilterSpec
	seed int64
	want string
}{
	{FilterSpec{M: 4096, NormalizedDoppler: 0.05}, 1, "302ffdc8b6ba907b564a791367aa206b51def6e254a0bd1dec58961af1640755"},
	{FilterSpec{M: 64, NormalizedDoppler: 1.0 / 64}, 3, "5ae89c4839be8fc7a190125fa7c783eaf278a3120932cc6b9778be2371799f96"},
	{FilterSpec{M: 256, NormalizedDoppler: 127.0 / 256}, 4, "c5bcac3bc0848c43ff68acfc80579c3076c1d84b6c8bc000924faca4c6aaa6c6"},
}

// perBinBlockInto is the per-bin form BlockInto replaced: every one of the M
// bins in ascending k, zero where F[k] = 0, two Gaussian draws where not.
func perBinBlockInto(g *Generator, rng *randx.RNG, dst []complex128) {
	for k, c := range g.coeffs {
		if c == 0 {
			dst[k] = 0
			continue
		}
		a := rng.Normal(0, g.sigmaOrig)
		b := rng.Normal(0, g.sigmaOrig)
		dst[k] = complex(c*a, -c*b)
	}
	g.plan.InverseScaled(dst)
}

// TestBlockIntoGolden checks the run walk against the per-bin form on every
// platform, and against the recorded digests on amd64. Other architectures
// may fuse the IDFT's multiply-adds, which changes the last bits of the
// transform for both forms alike.
func TestBlockIntoGolden(t *testing.T) {
	for _, tc := range blockIntoGolden {
		g, err := NewGenerator(tc.spec, 0.5)
		if err != nil {
			t.Fatalf("NewGenerator(%+v): %v", tc.spec, err)
		}
		got, want := randx.New(tc.seed), randx.New(tc.seed)
		h := sha256.New()
		var buf [8]byte
		dst := make([]complex128, tc.spec.M)
		ref := make([]complex128, tc.spec.M)
		for blk := 0; blk < 3; blk++ {
			if err := g.BlockInto(got, dst); err != nil {
				t.Fatalf("BlockInto(%+v): %v", tc.spec, err)
			}
			perBinBlockInto(g, want, ref)
			for l, v := range dst {
				if math.Float64bits(real(v)) != math.Float64bits(real(ref[l])) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(ref[l])) {
					t.Fatalf("%+v block %d sample %d: BlockInto %v, per-bin form %v", tc.spec, blk, l, v, ref[l])
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(real(v)))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(imag(v)))
				h.Write(buf[:])
			}
		}
		if runtime.GOARCH != "amd64" {
			continue
		}
		if digest := hex.EncodeToString(h.Sum(nil)); digest != tc.want {
			t.Errorf("BlockInto(%+v, seed %d) digest %s, want %s", tc.spec, tc.seed, digest, tc.want)
		}
	}
}
