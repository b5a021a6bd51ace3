package rayleigh_test

import (
	"errors"
	"fmt"
	"math"

	rayleigh "repro"
)

// ExampleNew generates correlated Rayleigh envelopes from an explicit
// covariance matrix and verifies the envelope statistics against the paper's
// Eq. (14)–(15).
func ExampleNew() {
	covariance := [][]complex128{
		{1, 0.3782 + 0.4753i, 0.0878 + 0.2207i},
		{0.3782 - 0.4753i, 1, 0.3063 + 0.3849i},
		{0.0878 - 0.2207i, 0.3063 - 0.3849i, 1},
	}
	gen, err := rayleigh.New(rayleigh.Config{Covariance: covariance, Seed: 42})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	var sum float64
	const draws = 20000
	for i := 0; i < draws; i++ {
		sum += gen.Snapshot().Envelopes[0]
	}
	mean := sum / draws
	want, _ := rayleigh.ExpectedEnvelopeMean(1)

	fmt.Println("envelopes per snapshot:", gen.N())
	fmt.Println("mean within 2% of Eq. (14):", math.Abs(mean-want)/want < 0.02)
	// Output:
	// envelopes per snapshot: 3
	// mean within 2% of Eq. (14): true
}

// ExampleGenerator_SnapshotsInto is the steady-state generation loop of a
// long-running simulation: one pre-shaped batch buffer, reused every call,
// with the chunks colored by a single matrix-matrix product each.
func ExampleGenerator_SnapshotsInto() {
	gen, err := rayleigh.New(rayleigh.Config{
		Covariance: [][]complex128{{1, 0.7}, {0.7, 1}},
		Seed:       7,
		Parallel:   2, // seeded output is bit-identical for every worker count
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	batch := make([]rayleigh.Snapshot, 4096)
	positive := true
	for round := 0; round < 4; round++ {
		if err := gen.SnapshotsInto(batch); err != nil {
			fmt.Println("error:", err)
			return
		}
		for _, s := range batch {
			positive = positive && s.Envelopes[0] > 0 && s.Envelopes[1] > 0
		}
	}
	fmt.Println("snapshots per batch:", len(batch))
	fmt.Println("all envelopes positive:", positive)
	// Output:
	// snapshots per batch: 4096
	// all envelopes positive: true
}

// ExampleStream_cursor shows the concurrent real-time entry point: a Stream
// is immutable and random-access, so a cursor can seek to any block index
// and reproduce exactly what a from-0 consumer saw there — the mechanism
// behind fadingd's resumable sessions.
func ExampleStream_cursor() {
	stream, err := rayleigh.NewStream(rayleigh.RealTimeConfig{
		Covariance:        [][]complex128{{1, 0.8}, {0.8, 1}},
		IDFTPoints:        512,
		NormalizedDoppler: 0.05,
		Seed:              3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// One cursor walks blocks 0..2 sequentially…
	walk, _ := stream.NewCursor()
	var b0, b1, b2 rayleigh.Block
	walk.Next(&b0)
	walk.Next(&b1)
	walk.Next(&b2)

	// …and an independent cursor seeks straight to block 2.
	seek, _ := stream.NewCursor()
	seek.Seek(2)
	var resumed rayleigh.Block
	seek.Next(&resumed)

	identical := true
	for j := range resumed.Gaussian {
		for l := range resumed.Gaussian[j] {
			identical = identical && resumed.Gaussian[j][l] == b2.Gaussian[j][l]
		}
	}
	fmt.Println("samples per block:", stream.BlockLength())
	fmt.Println("resumed block identical:", identical)
	// Output:
	// samples per block: 512
	// resumed block identical: true
}

// ExampleConfig_method selects generation backends by name: the paper's
// generalized engine is the default, and each conventional method keeps its
// documented constraints — requesting a configuration outside a method's
// vocabulary fails with a typed error.
func ExampleConfig_method() {
	pair := [][]complex128{{1, 0.6}, {0.6, 1}}

	gen, err := rayleigh.New(rayleigh.Config{
		Covariance: pair,
		Seed:       9,
		Method:     rayleigh.MethodErtelReed, // two-branch construction of [2]
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("backend:", gen.Method())

	// Ertel–Reed cannot express three envelopes.
	_, err = rayleigh.New(rayleigh.Config{
		Covariance: [][]complex128{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		Seed:       9,
		Method:     rayleigh.MethodErtelReed,
	})
	fmt.Println("N=3 unsupported:", errors.Is(err, rayleigh.ErrMethodUnsupported))

	// Cholesky coloring rejects indefinite targets the generalized engine
	// clamps.
	indefinite := [][]complex128{{1, 0.9, -0.9}, {0.9, 1, 0.9}, {-0.9, 0.9, 1}}
	_, err = rayleigh.New(rayleigh.Config{Covariance: indefinite, Seed: 9, Method: rayleigh.MethodBeaulieuMerani})
	fmt.Println("non-PSD rejected:", errors.Is(err, rayleigh.ErrMethodSetup))
	// Output:
	// backend: ertel_reed
	// N=3 unsupported: true
	// non-PSD rejected: true
}

// ExampleMethods lists the generation-backend catalog — the same vocabulary
// scenario files and fadingd session specs accept.
func ExampleMethods() {
	for _, m := range rayleigh.Methods() {
		fmt.Println(m.Name)
	}
	// Output:
	// generalized
	// salz_winters
	// ertel_reed
	// beaulieu_merani
	// natarajan
	// sorooshyari_daut
}

// ExampleConfig_fading selects a fading model from the channel-model zoo:
// the same covariance target and seed, realized as Rician fading with a
// K-factor of 4. The line-of-sight component is added after coloring, so
// the scattered part keeps the target correlation and the mean power stays
// on the covariance diagonal (see docs/models.md).
func ExampleConfig_fading() {
	gen, err := rayleigh.New(rayleigh.Config{
		Covariance: [][]complex128{{1, 0.6}, {0.6, 1}},
		Seed:       11,
		Fading:     rayleigh.FadingRician,
		FadingParams: &rayleigh.FadingParams{
			KFactor:     4,
			LOSPhaseRad: 0.5,
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// The moment estimator recovers the K-factor: K = |mean|²/(E|z|²−|mean|²).
	var mean complex128
	var power float64
	const draws = 40000
	for i := 0; i < draws; i++ {
		z := gen.Snapshot().Gaussian[0]
		mean += z
		power += real(z)*real(z) + imag(z)*imag(z)
	}
	mean /= draws
	power /= draws
	los := real(mean)*real(mean) + imag(mean)*imag(mean)
	k := los / (power - los)

	fmt.Println("mean power within 2% of target:", math.Abs(power-1) < 0.02)
	fmt.Println("K estimate within 10% of 4:", math.Abs(k-4)/4 < 0.1)
	// Output:
	// mean power within 2% of target: true
	// K estimate within 10% of 4: true
}

// ExampleStream_nonstationaryDoppler drives a real-time stream through a
// piecewise Doppler-velocity trajectory: the first three blocks are
// generated at fm = 0.02, the rest at fm = 0.1, each segment carrying its
// own Jakes autocorrelation. Blocks stay pure functions of (spec, seed, k),
// so a cursor seeking straight into the second segment reproduces exactly
// what a from-0 consumer saw there.
func ExampleStream_nonstationaryDoppler() {
	stream, err := rayleigh.NewStream(rayleigh.RealTimeConfig{
		Covariance: [][]complex128{{1}},
		IDFTPoints: 512,
		Seed:       21,
		Fading:     rayleigh.FadingNonstationaryDoppler,
		FadingParams: &rayleigh.FadingParams{
			Segments: []rayleigh.DopplerSegment{
				{Blocks: 3, NormalizedDoppler: 0.02},
				{Blocks: 3, NormalizedDoppler: 0.1}, // persists past the end
			},
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// The Jakes model in effect changes at the block-3 segment seam.
	fmt.Println("same model within a segment:",
		stream.TheoreticalAutocorrelationAt(0, 40) == stream.TheoreticalAutocorrelationAt(2, 40))
	fmt.Println("model changes across the seam:",
		stream.TheoreticalAutocorrelationAt(2, 40) != stream.TheoreticalAutocorrelationAt(3, 40))

	// Sequential walk to block 4 (second segment)…
	walk, _ := stream.NewCursor()
	var b rayleigh.Block
	for i := 0; i < 5; i++ {
		walk.Next(&b)
	}
	// …and a direct seek to block 4 produce identical bytes.
	seek, _ := stream.NewCursor()
	seek.Seek(4)
	var resumed rayleigh.Block
	seek.Next(&resumed)

	identical := true
	for l := range b.Gaussian[0] {
		identical = identical && b.Gaussian[0][l] == resumed.Gaussian[0][l]
	}
	fmt.Println("mid-trajectory seek identical:", identical)
	// Output:
	// same model within a segment: true
	// model changes across the seam: true
	// mid-trajectory seek identical: true
}
