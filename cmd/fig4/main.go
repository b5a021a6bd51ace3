// Command fig4 regenerates the evaluation artifacts of Section 6 of the
// paper: the covariance matrices of Eq. (22) (spectral correlation) and
// Eq. (23) (spatial correlation), and the envelope traces of Fig. 4(a)/(b)
// (three correlated Rayleigh envelopes in dB around their RMS value, plotted
// over the first 200 samples of a real-time block). Generation goes through
// the public Stream API, and -method regenerates the figure under any
// backend of the method registry to visualize where the conventional methods
// bias the covariance (see docs/methods.md).
//
// Usage:
//
//	fig4 -panel a            # Fig. 4(a): spectral correlation
//	fig4 -panel b            # Fig. 4(b): spatial correlation
//	fig4 -panel a -print-cov # print the Eq. (22)/(23) covariance matrix only
//	fig4 -panel a -method natarajan   # the real-forced Cholesky baseline
//	fig4 -panel b -samples 200 -format csv > fig4b.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	rayleigh "repro"
	"repro/internal/cmplxmat"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fig4: ")

	var (
		panel    = flag.String("panel", "a", `panel to regenerate: "a" (spectral, Eq. 22) or "b" (spatial, Eq. 23)`)
		samples  = flag.Int("samples", 200, "number of time samples to emit (the paper plots 200)")
		seed     = flag.Int64("seed", 1, "random seed")
		printCov = flag.Bool("print-cov", false, "print the desired covariance matrix and exit")
		format   = flag.String("format", "table", `output format: "table" or "csv"`)
		idft     = flag.Int("idft", 4096, "IDFT length M of the Doppler generators, a power of two")
		fm       = flag.Float64("fm", 0.05, "normalized maximum Doppler frequency Fm/Fs")
		method   = flag.String("method", "", `generation method ("generalized" default; see scenariorun -methods)`)
	)
	flag.Parse()

	covariance, label, err := panelCovariance(*panel)
	if err != nil {
		log.Fatal(err)
	}

	if *printCov {
		fmt.Printf("Desired covariance matrix K (%s):\n%s", label, formatRows(covariance))
		return
	}

	if *samples <= 0 || *samples > *idft {
		log.Fatalf("samples must be in 1..%d", *idft)
	}

	stream, err := rayleigh.NewStream(rayleigh.RealTimeConfig{
		Covariance:        covariance,
		IDFTPoints:        *idft,
		NormalizedDoppler: *fm,
		Seed:              *seed,
		Method:            *method,
	})
	if err != nil {
		log.Fatalf("building real-time stream: %v", err)
	}
	cursor, err := stream.NewCursor()
	if err != nil {
		log.Fatalf("opening cursor: %v", err)
	}
	var block rayleigh.Block
	if err := cursor.Next(&block); err != nil {
		log.Fatalf("generating block: %v", err)
	}

	// Convert each envelope to dB around its RMS value, as in Fig. 4.
	dB := make([][]float64, stream.N())
	for j := 0; j < stream.N(); j++ {
		series, err := stats.EnvelopeDB(block.Envelopes[j])
		if err != nil {
			log.Fatalf("normalizing envelope %d: %v", j, err)
		}
		dB[j] = series[:*samples]
	}

	switch *format {
	case "csv":
		writeCSV(os.Stdout, dB)
	case "table":
		fmt.Printf("Figure 4(%s): %d samples of %d correlated Rayleigh envelopes (dB around RMS)\n",
			*panel, *samples, stream.N())
		fmt.Printf("Doppler: M=%d, fm=%g, sigma_g^2 (Eq. 19) = %.4f\n\n", *idft, *fm, stream.SampleVariance())
		writeTable(os.Stdout, dB)
		printBlockCovariance(block.Gaussian, covariance)
	default:
		log.Fatalf("unknown format %q", *format)
	}
}

// printBlockCovariance reports the block's time-averaged covariance against
// the target — the quantitative statement behind the visual claim of Fig. 4
// that the envelopes are correlated as designed.
func printBlockCovariance(gaussian [][]complex128, target [][]complex128) {
	cov, err := stats.SampleCovarianceFromSeries(gaussian)
	if err != nil {
		log.Fatalf("estimating block covariance: %v", err)
	}
	cmp, err := stats.CompareCovariance(cov, cmplxmat.MustFromRows(target))
	if err != nil {
		log.Fatalf("comparing covariance: %v", err)
	}
	fmt.Printf("\nTime-averaged covariance of the block:\n%s", formatMatrix(cov))
	fmt.Printf("Desired covariance matrix:\n%s", formatRows(target))
	fmt.Printf("Worst entry deviation: %.4f (Frobenius: %.4f, relative: %.4f)\n",
		cmp.MaxAbs, cmp.Frobenius, cmp.Relative)
}

// panelCovariance builds the desired covariance matrix for the selected
// panel using the Section 6 parameters, through the public model builders.
func panelCovariance(panel string) ([][]complex128, string, error) {
	switch panel {
	case "a":
		cov, err := rayleigh.SpectralCovariance(rayleigh.SpectralConfig{
			Frequencies:    []float64{400e3, 200e3, 0},
			Delays:         [][]float64{{0, 1e-3, 4e-3}, {1e-3, 0, 3e-3}, {4e-3, 3e-3, 0}},
			MaxDopplerHz:   50,
			RMSDelaySpread: 1e-6,
		})
		if err != nil {
			return nil, "", err
		}
		return cov, "Eq. (22), spectral correlation", nil
	case "b":
		cov, err := rayleigh.SpatialCovariance(rayleigh.SpatialConfig{
			Antennas:           3,
			SpacingWavelengths: 1,
			AngularSpreadRad:   math.Pi / 18,
			MeanAngleRad:       0,
		})
		if err != nil {
			return nil, "", err
		}
		return cov, "Eq. (23), spatial correlation", nil
	default:
		return nil, "", fmt.Errorf("unknown panel %q (want \"a\" or \"b\")", panel)
	}
}

func formatRows(rows [][]complex128) string {
	out := ""
	for _, row := range rows {
		for _, v := range row {
			out += fmt.Sprintf("  %8.4f%+8.4fi", real(v), imag(v))
		}
		out += "\n"
	}
	return out
}

func formatMatrix(m *cmplxmat.Matrix) string {
	rows := make([][]complex128, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return formatRows(rows)
}

func writeCSV(w *os.File, dB [][]float64) {
	fmt.Fprint(w, "sample")
	for j := range dB {
		fmt.Fprintf(w, ",envelope%d_dB", j+1)
	}
	fmt.Fprintln(w)
	for l := range dB[0] {
		fmt.Fprintf(w, "%d", l)
		for j := range dB {
			fmt.Fprintf(w, ",%.4f", dB[j][l])
		}
		fmt.Fprintln(w)
	}
}

func writeTable(w *os.File, dB [][]float64) {
	fmt.Fprintf(w, "%8s", "sample")
	for j := range dB {
		fmt.Fprintf(w, "%14s", fmt.Sprintf("env%d (dB)", j+1))
	}
	fmt.Fprintln(w)
	step := len(dB[0]) / 20
	if step < 1 {
		step = 1
	}
	for l := 0; l < len(dB[0]); l += step {
		fmt.Fprintf(w, "%8d", l)
		for j := range dB {
			fmt.Fprintf(w, "%14.2f", dB[j][l])
		}
		fmt.Fprintln(w)
	}
}
