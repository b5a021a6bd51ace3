package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	rayleigh "repro"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/stats"
)

// Result is the outcome of running one scenario: the forcing diagnostics and
// one GateResult per assertion, in spec order. It contains no timestamps or
// durations, so rerunning a spec with the same seed yields byte-identical
// artifacts.
type Result struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	Mode        string `json:"mode"`
	// Method is the generation backend the scenario ran on ("generalized"
	// unless the spec selected a conventional method).
	Method string `json:"method"`
	// N is the envelope count, Samples the total number of generated
	// envelope vectors (draws, or blocks × block length).
	N       int `json:"n"`
	Samples int `json:"samples"`
	// ClampedEigenvalues and ForcingError summarize the positive
	// semi-definiteness forcing applied to the covariance target.
	ClampedEigenvalues int          `json:"clamped_eigenvalues"`
	ForcingError       float64      `json:"forcing_frobenius_error"`
	Gates              []GateResult `json:"gates"`
	// Comparison is the side-by-side method table accumulated by comparison
	// gates (empty when the spec has none), in method-row order.
	Comparison []MethodOutcome `json:"comparison,omitempty"`
	Passed     bool            `json:"passed"`
}

// MethodOutcome is one row of the side-by-side method-comparison table: what
// one generation method did with the scenario's covariance target.
type MethodOutcome struct {
	Method string `json:"method"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Err is the construction error text of unsupported/setup_failed rows.
	Err string `json:"error,omitempty"`
	// CovMaxAbsError and CovRelFrobenius compare the method's sample
	// covariance against the scenario's (unforced) target (OK rows only).
	CovMaxAbsError  float64 `json:"cov_max_abs_error,omitempty"`
	CovRelFrobenius float64 `json:"cov_rel_frobenius,omitempty"`
	// EnvelopeMeanError and EnvelopeVarianceError are the relative
	// envelope-moment errors of envelope 0 against Eq. (14)–(15) (OK rows
	// only).
	EnvelopeMeanError     float64 `json:"envelope_mean_error,omitempty"`
	EnvelopeVarianceError float64 `json:"envelope_variance_error,omitempty"`
}

// GateResult is the outcome of one assertion.
type GateResult struct {
	Type   string  `json:"type"`
	Passed bool    `json:"passed"`
	Checks []Check `json:"checks"`
}

// Check is one scalar comparison inside a gate: Observed Op Limit.
type Check struct {
	Name     string  `json:"name"`
	Observed float64 `json:"observed"`
	Op       string  `json:"op"`
	Limit    float64 `json:"limit"`
	Passed   bool    `json:"passed"`
}

// check builds a Check, evaluating the comparison.
func check(name string, observed, limit float64, op string) Check {
	c := Check{Name: name, Observed: observed, Op: op, Limit: limit}
	switch op {
	case "<=":
		c.Passed = observed <= limit
	case ">=":
		c.Passed = observed >= limit
	case "==":
		c.Passed = observed == limit
	default:
		c.Passed = false
	}
	return c
}

// runData is everything the assertion evaluators read: the covariance target
// before and after forcing, the sample covariance, and the envelope sample /
// autocorrelation series the spec's assertions asked for.
type runData struct {
	spec       *Spec
	target     *cmplxmat.Matrix
	forced     *core.ForcedPSD
	cov        *cmplxmat.Matrix
	env        map[int][]float64
	acf        map[int][]float64   // averaged lagged autocorrelation per envelope
	gmean      map[int]complex128  // complex sample mean per envelope (rician_k)
	segACF     map[int][][]float64 // per envelope: per trajectory segment, averaged ACF
	fm         float64             // normalized Doppler of the realtime run
	samples    int
	comparison []MethodOutcome // side-by-side rows accumulated by comparison gates
}

// Run executes one scenario end to end and returns its Result. Spec errors
// (unknown types, impossible sizes, envelope indices out of range) surface as
// an error; statistical violations surface as failed gates in the Result.
func Run(spec *Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	target, err := spec.Model.Build()
	if err != nil {
		return nil, err
	}
	n := target.Rows()
	if err := checkEnvelopeIndices(spec, n); err != nil {
		return nil, err
	}
	forced, err := core.ForcePSD(target)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}

	data := &runData{
		spec:   spec,
		target: target,
		forced: forced,
		env:    map[int][]float64{},
		acf:    map[int][]float64{},
		gmean:  map[int]complex128{},
		segACF: map[int][][]float64{},
	}
	switch spec.Generation.Mode {
	case ModeSnapshot, ModeBatched:
		err = collectSnapshots(data)
	case ModeRealtime:
		err = collectRealtime(data)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}

	res := &Result{
		Name:               spec.Name,
		Description:        spec.Description,
		Seed:               spec.Seed,
		Mode:               spec.Generation.Mode,
		Method:             chanspec.NormalizeMethod(spec.Generation.Method),
		N:                  n,
		Samples:            data.samples,
		ClampedEigenvalues: forced.NumClamped,
		ForcingError:       forced.FrobeniusError,
		Passed:             true,
	}
	for i := range spec.Assertions {
		gate, err := evaluate(&spec.Assertions[i], data)
		if err != nil {
			return nil, fmt.Errorf("scenario %q assertion %d (%s): %w", spec.Name, i, spec.Assertions[i].Type, err)
		}
		res.Gates = append(res.Gates, gate)
		if !gate.Passed {
			res.Passed = false
		}
	}
	res.Comparison = data.comparison
	return res, nil
}

// checkEnvelopeIndices rejects assertions naming an envelope outside [0, N).
func checkEnvelopeIndices(spec *Spec, n int) error {
	for i := range spec.Assertions {
		a := &spec.Assertions[i]
		if a.Envelope < 0 || a.Envelope >= n {
			return fmt.Errorf("scenario %q assertion %d: envelope %d out of range for N = %d: %w",
				spec.Name, i, a.Envelope, n, ErrBadSpec)
		}
	}
	return nil
}

// neededEnvelopes returns the envelope indices whose sample series the
// assertions read, in ascending order.
func neededEnvelopes(spec *Spec, types ...string) []int {
	want := map[string]bool{}
	for _, t := range types {
		want[t] = true
	}
	seen := map[int]bool{}
	var out []int
	for i := range spec.Assertions {
		a := &spec.Assertions[i]
		if want[a.Type] && !seen[a.Envelope] {
			seen[a.Envelope] = true
			out = append(out, a.Envelope)
		}
	}
	return out
}

// collectSnapshots runs the snapshot or batched mode through the public
// snapshot constructor and fills the sample covariance and envelope series
// of data.
func collectSnapshots(data *runData) error {
	spec := data.spec
	draws := spec.Generation.Draws
	gen, err := newGenerator(data, spec.Generation.Method, spec.Generation.Workers)
	if err != nil {
		return err
	}
	envIdx := neededEnvelopes(spec, AssertEnvelopeMoments, AssertRayleighKS, AssertRayleighChiSquare,
		AssertNakagamiKS, AssertSuzukiLogMoment)
	for _, j := range envIdx {
		data.env[j] = make([]float64, 0, draws)
	}

	samples := make([][]complex128, draws)
	switch spec.Generation.Mode {
	case ModeSnapshot:
		for i := range samples {
			s := gen.Snapshot()
			samples[i] = s.Gaussian
			for _, j := range envIdx {
				data.env[j] = append(data.env[j], s.Envelopes[j])
			}
		}
	case ModeBatched:
		batch := make([]rayleigh.Snapshot, draws)
		if err := gen.SnapshotsInto(batch); err != nil {
			return err
		}
		for i := range batch {
			samples[i] = batch[i].Gaussian
			for _, j := range envIdx {
				data.env[j] = append(data.env[j], batch[i].Envelopes[j])
			}
		}
	}
	data.samples = draws
	for _, j := range neededEnvelopes(spec, AssertRicianK) {
		var sum complex128
		for i := range samples {
			sum += samples[i][j]
		}
		data.gmean[j] = sum / complex(float64(draws), 0)
	}
	data.cov, err = stats.SampleCovariance(samples)
	return err
}

// collectRealtime runs the realtime mode: consecutive blocks feed the sample
// covariance, the envelope series, and the per-envelope lagged
// autocorrelation averaged over blocks.
func collectRealtime(data *runData) error {
	spec := data.spec
	stream, err := newStream(data)
	if err != nil {
		return err
	}
	data.fm = chanspec.FilterDoppler(spec.Model.Fading, spec.Generation.NormalizedDoppler)
	blocks := spec.Generation.Blocks
	envIdx := neededEnvelopes(spec, AssertEnvelopeMoments, AssertRayleighKS, AssertRayleighChiSquare,
		AssertNakagamiKS, AssertSuzukiLogMoment)
	acfIdx := neededEnvelopes(spec, AssertAutocorrelation)
	segIdx := neededEnvelopes(spec, AssertSegmentAutocorrelation)
	maxLag := 0
	for i := range spec.Assertions {
		a := &spec.Assertions[i]
		if (a.Type == AssertAutocorrelation || a.Type == AssertSegmentAutocorrelation) && assertMaxLag(a) > maxLag {
			maxLag = assertMaxLag(a)
		}
	}
	segments := trajectorySegments(spec)

	n := data.target.Rows()
	blks, err := streamBlocks(stream, blocks, spec.Generation.Workers)
	if err != nil {
		return err
	}
	series := make([][]complex128, n)
	segCount := make([]float64, len(segments))
	for b, blk := range blks {
		for j := 0; j < n; j++ {
			series[j] = append(series[j], blk.Gaussian[j]...)
		}
		for _, j := range envIdx {
			data.env[j] = append(data.env[j], blk.Envelopes[j]...)
		}
		for _, j := range acfIdx {
			rho, err := stats.LaggedAutocorrelation(blk.Gaussian[j], maxLag)
			if err != nil {
				return err
			}
			if data.acf[j] == nil {
				data.acf[j] = make([]float64, maxLag+1)
			}
			for d := range rho {
				data.acf[j][d] += rho[d]
			}
		}
		if len(segments) > 0 {
			si := chanspec.SegmentIndexAt(segments, uint64(b))
			segCount[si]++
			for _, j := range segIdx {
				rho, err := stats.LaggedAutocorrelation(blk.Gaussian[j], maxLag)
				if err != nil {
					return err
				}
				if data.segACF[j] == nil {
					data.segACF[j] = make([][]float64, len(segments))
				}
				if data.segACF[j][si] == nil {
					data.segACF[j][si] = make([]float64, maxLag+1)
				}
				for d := range rho {
					data.segACF[j][si][d] += rho[d]
				}
			}
		}
	}
	for _, j := range acfIdx {
		for d := range data.acf[j] {
			data.acf[j][d] /= float64(blocks)
		}
	}
	for _, j := range segIdx {
		for si := range data.segACF[j] {
			if data.segACF[j][si] == nil {
				continue
			}
			for d := range data.segACF[j][si] {
				data.segACF[j][si][d] /= segCount[si]
			}
		}
	}
	data.samples = blocks * stream.BlockLength()
	for _, j := range neededEnvelopes(spec, AssertRicianK) {
		var sum complex128
		for _, z := range series[j] {
			sum += z
		}
		data.gmean[j] = sum / complex(float64(len(series[j])), 0)
	}
	data.cov, err = stats.SampleCovarianceFromSeries(series)
	return err
}

// trajectorySegments returns the nonstationary-Doppler trajectory of the
// spec's fading model, or nil for every other model.
func trajectorySegments(spec *Spec) []chanspec.DopplerSegment {
	if chanspec.NormalizeFading(spec.Model.Fading) != chanspec.FadingNonstationaryDoppler || spec.Model.Params == nil {
		return nil
	}
	return spec.Model.Params.Segments
}

// newGenerator builds the spec's snapshot generator under method through the
// public constructor, with workers as its SnapshotsInto parallelism.
func newGenerator(data *runData, method string, workers int) (*rayleigh.Generator, error) {
	spec := data.spec
	return rayleigh.New(rayleigh.Config{
		Covariance:   data.target.ToRows(),
		Seed:         spec.Seed,
		Parallel:     workers,
		Method:       method,
		Fading:       spec.Model.Fading,
		FadingParams: spec.Model.Params,
	})
}

// newStream builds the spec's real-time stream through the public
// constructor, as fadingd builds a session's.
func newStream(data *runData) (*rayleigh.Stream, error) {
	spec := data.spec
	return rayleigh.NewStream(rayleigh.RealTimeConfig{
		Covariance:        data.target.ToRows(),
		IDFTPoints:        cmp.Or(spec.Generation.IDFTPoints, chanspec.DefaultIDFTPoints),
		NormalizedDoppler: chanspec.FilterDoppler(spec.Model.Fading, spec.Generation.NormalizedDoppler),
		InputVariance:     spec.Generation.InputVariance,
		Seed:              spec.Seed,
		Method:            spec.Generation.Method,
		Fading:            spec.Model.Fading,
		FadingParams:      spec.Model.Params,
	})
}

// streamBlocks reads blocks 0..count-1 of stream with one Cursor per
// goroutine, workers of them, each taking every workers-th block. Block k is
// a pure function of k, so the result is bit-identical for every worker
// count.
func streamBlocks(stream *rayleigh.Stream, count, workers int) ([]*rayleigh.Block, error) {
	blks := make([]*rayleigh.Block, count)
	workers = max(1, min(workers, count))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := stream.NewCursor()
			for i := w; err == nil && i < count; i += workers {
				blks[i] = &rayleigh.Block{}
				err = cur.BlockAt(uint64(i), blks[i])
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	return blks, errors.Join(errs...)
}

// assertMaxLag returns the autocorrelation lag bound in effect (default 100).
func assertMaxLag(a *AssertionSpec) int {
	if a.MaxLag > 0 {
		return a.MaxLag
	}
	return 100
}
