// Command rayleighgen generates correlated Rayleigh fading envelopes to
// stdout as CSV, for use as channel traces in external link-level
// simulators.
//
// Two modes are available:
//
//	-mode snapshot   independent draws (one row per draw);
//	-mode realtime   time-correlated blocks with the Jakes autocorrelation
//	                 (one row per time sample).
//
// The desired correlation is specified either as a uniform correlation
// coefficient between all pairs (-rho), or through the spectral model flags
// (-spacing, -doppler, -delay-spread) that mirror Section 2 of the paper.
//
// The -method flag selects the generation backend: the paper's generalized
// algorithm (default) or one of the conventional methods it reviews (run
// "scenariorun -methods" for the catalog); methods that cannot express the
// requested correlation fail with their documented error.
//
// Examples:
//
//	rayleighgen -n 4 -rho 0.7 -count 1000
//	rayleighgen -n 2 -rho 0.6 -method ertel_reed -count 1000
//	rayleighgen -mode realtime -n 3 -spacing 200e3 -doppler 50 -delay-spread 1e-6 -count 4096
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	rayleigh "repro"
	"repro/internal/cmplxmat"
	"repro/internal/corrmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rayleighgen: ")

	var (
		mode        = flag.String("mode", "snapshot", `generation mode: "snapshot" or "realtime"`)
		n           = flag.Int("n", 3, "number of correlated envelopes")
		count       = flag.Int("count", 1000, "number of rows to emit (snapshots or time samples)")
		rho         = flag.Float64("rho", 0, "uniform correlation coefficient between all pairs (used when spacing is 0)")
		power       = flag.Float64("power", 1, "complex Gaussian power per envelope")
		spacing     = flag.Float64("spacing", 0, "carrier spacing in Hz for the spectral model (0 disables)")
		dopplerHz   = flag.Float64("doppler", 50, "maximum Doppler shift Fm in Hz (spectral model)")
		delaySpread = flag.Float64("delay-spread", 1e-6, "RMS delay spread in seconds (spectral model)")
		fm          = flag.Float64("fm", 0.05, "normalized Doppler Fm/Fs (realtime mode)")
		idft        = flag.Int("idft", 4096, "IDFT length M, a power of two (realtime mode)")
		seed        = flag.Int64("seed", 1, "random seed")
		envOnly     = flag.Bool("envelopes-only", false, "emit only the envelopes, not the complex Gaussians")
		method      = flag.String("method", "", `generation method ("generalized" default; see scenariorun -methods)`)
	)
	flag.Parse()

	if *n <= 0 || *count <= 0 {
		log.Fatal("n and count must be positive")
	}

	covariance, err := buildCovariance(*n, *rho, *power, *spacing, *dopplerHz, *delaySpread)
	if err != nil {
		log.Fatal(err)
	}
	rows := covariance.ToRows()

	w := os.Stdout
	writeHeader(w, *n, *envOnly)

	switch *mode {
	case "snapshot":
		gen, err := rayleigh.New(rayleigh.Config{Covariance: rows, Seed: *seed, Method: *method})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < *count; i++ {
			s := gen.Snapshot()
			writeRow(w, i, s.Gaussian, s.Envelopes, *envOnly)
		}
	case "realtime":
		stream, err := rayleigh.NewStream(rayleigh.RealTimeConfig{
			Covariance:        rows,
			IDFTPoints:        *idft,
			NormalizedDoppler: *fm,
			InputVariance:     0.5,
			Seed:              *seed,
			Method:            *method,
		})
		if err != nil {
			log.Fatal(err)
		}
		cursor, err := stream.NewCursor()
		if err != nil {
			log.Fatal(err)
		}
		var block rayleigh.Block
		emitted := 0
		for emitted < *count {
			if err := cursor.Next(&block); err != nil {
				log.Fatal(err)
			}
			for l := 0; l < stream.BlockLength() && emitted < *count; l++ {
				gauss := make([]complex128, *n)
				env := make([]float64, *n)
				for j := 0; j < *n; j++ {
					gauss[j] = block.Gaussian[j][l]
					env[j] = block.Envelopes[j][l]
				}
				writeRow(w, emitted, gauss, env, *envOnly)
				emitted++
			}
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// buildCovariance constructs the desired covariance matrix from the flags:
// the spectral model when a carrier spacing is given, otherwise a uniform
// correlation coefficient.
func buildCovariance(n int, rho, power, spacing, dopplerHz, delaySpread float64) (*cmplxmat.Matrix, error) {
	if spacing > 0 {
		delays := make([][]float64, n)
		for i := range delays {
			delays[i] = make([]float64, n)
		}
		model, err := corrmodel.NewUniformSpectral(corrmodel.UniformSpectralParams{
			N:                n,
			CarrierSpacingHz: spacing,
			MaxDopplerHz:     dopplerHz,
			RMSDelaySpread:   delaySpread,
			Power:            power,
			PairDelays:       delays,
		})
		if err != nil {
			return nil, err
		}
		res, err := model.Covariance()
		if err != nil {
			return nil, err
		}
		return res.Matrix, nil
	}
	if rho < -1 || rho > 1 {
		return nil, fmt.Errorf("rho %g outside [-1, 1]", rho)
	}
	k := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				k.Set(i, j, complex(power, 0))
			} else {
				k.Set(i, j, complex(rho*power, 0))
			}
		}
	}
	return k, nil
}

func writeHeader(w *os.File, n int, envOnly bool) {
	fmt.Fprint(w, "index")
	for j := 1; j <= n; j++ {
		if !envOnly {
			fmt.Fprintf(w, ",re%d,im%d", j, j)
		}
		fmt.Fprintf(w, ",envelope%d", j)
	}
	fmt.Fprintln(w)
}

func writeRow(w *os.File, idx int, gauss []complex128, env []float64, envOnly bool) {
	fmt.Fprintf(w, "%d", idx)
	for j := range env {
		if !envOnly {
			fmt.Fprintf(w, ",%.6f,%.6f", real(gauss[j]), imag(gauss[j]))
		}
		fmt.Fprintf(w, ",%.6f", env[j])
	}
	fmt.Fprintln(w)
}
