package doppler

import (
	"errors"
	"testing"

	"repro/internal/randx"
)

// TestBlockIntoMatchesBlock: a block drawn into reused storage that holds an
// earlier block equals the same draw into a fresh slice.
func TestBlockIntoMatchesBlock(t *testing.T) {
	const m = 512
	g, err := NewGenerator(FilterSpec{M: m, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	want := make([]complex128, m)
	if err := g.BlockInto(randx.New(31), want); err != nil {
		t.Fatalf("BlockInto: %v", err)
	}
	got := make([]complex128, m)
	if err := g.BlockInto(randx.New(7), got); err != nil {
		t.Fatalf("BlockInto: %v", err)
	}
	if err := g.BlockInto(randx.New(31), got); err != nil {
		t.Fatalf("BlockInto: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: reused %v vs fresh %v", i, got[i], want[i])
		}
	}
}

func TestBlockIntoLengthError(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 512, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if err := g.BlockInto(randx.New(1), make([]complex128, 100)); !errors.Is(err, ErrBadParameter) {
		t.Errorf("short destination: err = %v", err)
	}
}

func TestBlockIntoDoesNotAllocatePow2(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 1024, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := randx.New(37)
	dst := make([]complex128, 1024)
	if n := testing.AllocsPerRun(20, func() {
		if err := g.BlockInto(rng, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BlockInto allocates %v per run", n)
	}
}

// TestBandSynthesisMatchesBlockInto: BandInto draws the B = 2·k_m taps of
// BlockInto's spectrum from the same draws, and SynthesizeInto of that band
// reproduces BlockInto's block exactly. The 1/M factor is a power of two, so
// applying it before the transform rounds exactly as applying it after
// does.
func TestBandSynthesisMatchesBlockInto(t *testing.T) {
	for _, spec := range []FilterSpec{
		{M: 512, NormalizedDoppler: 0.05},
		{M: 64, NormalizedDoppler: 1.0 / 64},
		{M: 256, NormalizedDoppler: 127.0 / 256},
		{M: 4096, NormalizedDoppler: 0.05},  // the paper's block
		{M: 65536, NormalizedDoppler: 0.05}, // fadingd's largest IDFT
		// Odd powers of two: the first pass is the radix-2 one.
		{M: 2048, NormalizedDoppler: 0.05},
		{M: 8192, NormalizedDoppler: 0.05},
		// k_m = M/8 at an even power and M/4 at an odd one: the band
		// reaches every first-pass group.
		{M: 1024, NormalizedDoppler: 0.125},
		{M: 2048, NormalizedDoppler: 0.25},
	} {
		g, err := NewGenerator(spec, 0.5)
		if err != nil {
			t.Fatalf("NewGenerator(%+v): %v", spec, err)
		}
		if g.BandLen() != 2*spec.KM() {
			t.Fatalf("%+v: BandLen %d, want 2·k_m = %d", spec, g.BandLen(), 2*spec.KM())
		}
		want := make([]complex128, spec.M)
		if err := g.BlockInto(randx.New(41), want); err != nil {
			t.Fatal(err)
		}
		band := make([]complex128, g.BandLen())
		if err := g.BandInto(randx.New(41), band); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, spec.M)
		for i := range got {
			got[i] = complex(float64(i), 1) // SynthesizeInto must clear the gaps
		}
		if err := g.SynthesizeInto(band, got); err != nil {
			t.Fatal(err)
		}
		for l := range want {
			if got[l] != want[l] {
				t.Fatalf("%+v sample %d: synthesis %v, BlockInto %v", spec, l, got[l], want[l])
			}
		}
	}
}

func TestBandLengthErrors(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 512, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BandInto(randx.New(1), make([]complex128, g.BandLen()+1)); !errors.Is(err, ErrBadParameter) {
		t.Errorf("long band: err = %v", err)
	}
	if err := g.SynthesizeInto(make([]complex128, g.BandLen()), make([]complex128, 511)); !errors.Is(err, ErrBadParameter) {
		t.Errorf("short destination: err = %v", err)
	}
	if err := g.SynthesizeInto(make([]complex128, 3), make([]complex128, 512)); !errors.Is(err, ErrBadParameter) {
		t.Errorf("short band: err = %v", err)
	}
}

func TestBandSynthesisDoesNotAllocatePow2(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 1024, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(43)
	band := make([]complex128, g.BandLen())
	dst := make([]complex128, 1024)
	if n := testing.AllocsPerRun(20, func() {
		if err := g.BandInto(rng, band); err != nil {
			t.Fatal(err)
		}
		if err := g.SynthesizeInto(band, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("band draw and synthesis allocate %v per run", n)
	}
}

// BenchmarkSynthesizeInto times the synthesis the real-time block runs per
// envelope: one band row of the paper's M = 4096, fm = 0.05 filter (B = 408
// taps) scattered into bit-reversed bins and inverse-transformed.
// BenchmarkPlanInverse4096 in internal/dsp times the full InverseScaled
// with its permutation pass instead.
func BenchmarkSynthesizeInto(b *testing.B) {
	g, err := NewGenerator(FilterSpec{M: 4096, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	band := make([]complex128, g.BandLen())
	if err := g.BandInto(randx.New(47), band); err != nil {
		b.Fatal(err)
	}
	dst := make([]complex128, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SynthesizeInto(band, dst); err != nil {
			b.Fatal(err)
		}
	}
}
