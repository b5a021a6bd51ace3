package scenario

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/doppler"
	"repro/internal/stats"
)

// evaluate dispatches one assertion against the collected run data.
func evaluate(a *AssertionSpec, data *runData) (GateResult, error) {
	var (
		checks []Check
		err    error
	)
	switch a.Type {
	case AssertCovariance:
		checks, err = evalCovariance(a, data)
	case AssertCovarianceDefect:
		checks, err = evalCovarianceDefect(a, data)
	case AssertEnvelopeMoments:
		checks, err = evalEnvelopeMoments(a, data)
	case AssertRayleighKS:
		checks, err = evalRayleighKS(a, data)
	case AssertRayleighChiSquare:
		checks, err = evalRayleighChiSquare(a, data)
	case AssertAutocorrelation:
		checks, err = evalAutocorrelation(a, data)
	case AssertPSDForcing:
		checks, err = evalPSDForcing(a, data)
	case AssertIntoIdentity:
		checks, err = evalIntoIdentity(a, data)
	case AssertParallelIdentity:
		checks, err = evalParallelIdentity(a, data)
	case AssertComparison:
		checks, err = evalComparison(a, data)
	case AssertRicianK:
		checks, err = evalRicianK(a, data)
	case AssertNakagamiKS:
		checks, err = evalNakagamiKS(a, data)
	case AssertSuzukiLogMoment:
		checks, err = evalSuzukiLogMoment(a, data)
	case AssertSegmentAutocorrelation:
		checks, err = evalSegmentAutocorrelation(a, data)
	default:
		err = fmt.Errorf("unknown assertion type %q: %w", a.Type, ErrBadSpec)
	}
	if err != nil {
		return GateResult{}, err
	}
	gate := GateResult{Type: a.Type, Passed: true, Checks: checks}
	for _, c := range checks {
		if !c.Passed {
			gate.Passed = false
		}
	}
	return gate, nil
}

// covarianceTarget resolves the Against selector.
func covarianceTarget(a *AssertionSpec, data *runData) *cmplxmat.Matrix {
	if a.Against == "forced" {
		return data.forced.Forced
	}
	return data.target
}

func evalCovariance(a *AssertionSpec, data *runData) ([]Check, error) {
	cmp, err := stats.CompareCovariance(data.cov, covarianceTarget(a, data))
	if err != nil {
		return nil, err
	}
	var checks []Check
	if a.MaxAbsError > 0 {
		checks = append(checks, check("max abs error", cmp.MaxAbs, a.MaxAbsError, "<="))
	}
	if a.MaxRelFrobenius > 0 {
		checks = append(checks, check("relative Frobenius", cmp.Relative, a.MaxRelFrobenius, "<="))
	}
	return checks, nil
}

func evalCovarianceDefect(a *AssertionSpec, data *runData) ([]Check, error) {
	cmp, err := stats.CompareCovariance(data.cov, covarianceTarget(a, data))
	if err != nil {
		return nil, err
	}
	return []Check{check("max abs error", cmp.MaxAbs, a.MinAbsError, ">=")}, nil
}

// envelopePower returns the Gaussian power feeding envelope j: the diagonal
// of the forced covariance, which is what the generator actually colors to.
func envelopePower(data *runData, j int) float64 {
	return real(data.forced.Forced.At(j, j))
}

func evalEnvelopeMoments(a *AssertionSpec, data *runData) ([]Check, error) {
	env := data.env[a.Envelope]
	mean, err := stats.Mean(env)
	if err != nil {
		return nil, err
	}
	variance, err := stats.Variance(env)
	if err != nil {
		return nil, err
	}
	power := envelopePower(data, a.Envelope)
	wantMean, err := core.ExpectedEnvelopeMean(power)
	if err != nil {
		return nil, err
	}
	wantVar, err := core.GaussianPowerToEnvelopeVariance(power)
	if err != nil {
		return nil, err
	}
	var checks []Check
	if a.MeanTolerance > 0 {
		checks = append(checks, check("relative mean error (Eq. 14)",
			math.Abs(mean-wantMean)/wantMean, a.MeanTolerance, "<="))
	}
	if a.VarianceTolerance > 0 {
		checks = append(checks, check("relative variance error (Eq. 15)",
			math.Abs(variance-wantVar)/wantVar, a.VarianceTolerance, "<="))
	}
	return checks, nil
}

// envelopeDist is the theoretical Rayleigh distribution of envelope j.
func envelopeDist(data *runData, j int) (stats.RayleighDist, error) {
	return stats.NewRayleighFromGaussianPower(envelopePower(data, j))
}

func evalRayleighKS(a *AssertionSpec, data *runData) ([]Check, error) {
	dist, err := envelopeDist(data, a.Envelope)
	if err != nil {
		return nil, err
	}
	_, pval, err := stats.KolmogorovSmirnovRayleigh(data.env[a.Envelope], dist)
	if err != nil {
		return nil, err
	}
	return []Check{check("KS p-value", pval, a.MinPValue, ">=")}, nil
}

func evalRayleighChiSquare(a *AssertionSpec, data *runData) ([]Check, error) {
	dist, err := envelopeDist(data, a.Envelope)
	if err != nil {
		return nil, err
	}
	bins := a.Bins
	if bins == 0 {
		bins = 20
	}
	res, err := stats.ChiSquareRayleigh(data.env[a.Envelope], dist, bins, 0)
	if err != nil {
		return nil, err
	}
	return []Check{check("chi-square p-value", res.PValue, a.MinPValue, ">=")}, nil
}

func evalAutocorrelation(a *AssertionSpec, data *runData) ([]Check, error) {
	acf := data.acf[a.Envelope]
	maxLag := assertMaxLag(a)
	var worst float64
	for d := 0; d <= maxLag; d++ {
		want := doppler.TheoreticalAutocorrelation(data.fm, d)
		if dev := math.Abs(acf[d] - want); dev > worst {
			worst = dev
		}
	}
	return []Check{check(fmt.Sprintf("worst acf deviation from J0 over lags 0..%d", maxLag), worst, a.Tolerance, "<=")}, nil
}

// evalRicianK estimates the Rician K-factor of one envelope by the moment
// method: with μ = E[z] and P = E[|z|²] (both measured on the generated
// composite samples), K̂ = |μ|²/(P − |μ|²). The LOS power |μ|² and scattered
// power P − |μ|² are exact moments of the model, so the estimate converges to
// params.k_factor.
func evalRicianK(a *AssertionSpec, data *runData) ([]Check, error) {
	want := data.spec.Model.Params.KFactor
	mu := data.gmean[a.Envelope]
	mu2 := real(mu)*real(mu) + imag(mu)*imag(mu)
	power := real(data.cov.At(a.Envelope, a.Envelope)) // uncentered E[|z|²]
	scattered := power - mu2
	if scattered <= 0 {
		return nil, fmt.Errorf("rician_k: degenerate scattered power %g: %w", scattered, ErrBadSpec)
	}
	kHat := mu2 / scattered
	err := math.Abs(kHat - want)
	name := "K estimate abs error"
	if want > 0 {
		err /= want
		name = "K estimate relative error"
	}
	return []Check{check(name, err, a.Tolerance, "<=")}, nil
}

// evalNakagamiKS tests one envelope against the theoretical Nakagami-m
// distribution of the model's shape and the envelope's Gaussian power Ω
// (preserved by the probability-integral transform).
func evalNakagamiKS(a *AssertionSpec, data *runData) ([]Check, error) {
	dist := stats.NakagamiDist{M: data.spec.Model.Params.M, Omega: envelopePower(data, a.Envelope)}
	_, pval, err := stats.KolmogorovSmirnov(data.env[a.Envelope], dist.CDF)
	if err != nil {
		return nil, err
	}
	return []Check{check("Nakagami KS p-value", pval, a.MinPValue, ">=")}, nil
}

// evalSuzukiLogMoment checks the log-envelope moments of the Suzuki
// composition. For a Rayleigh envelope with E[r²] = Ω, 20·log10(r) has mean
// (10/ln10)(ln Ω − γ) and variance (10/ln10)²·π²/6 ≈ 31.0249 dB²; the
// zero-mean lognormal shadowing leaves the mean and adds σ_dB² to the
// variance.
func evalSuzukiLogMoment(a *AssertionSpec, data *runData) ([]Check, error) {
	const eulerGamma = 0.5772156649015329
	sigmaDB := data.spec.Model.Params.ShadowSigmaDB
	omega := envelopePower(data, a.Envelope)
	var logs []float64
	for _, r := range data.env[a.Envelope] {
		if r > 0 {
			logs = append(logs, 20*math.Log10(r))
		}
	}
	mean, err := stats.Mean(logs)
	if err != nil {
		return nil, err
	}
	variance, err := stats.Variance(logs)
	if err != nil {
		return nil, err
	}
	wantMean := 10 / math.Ln10 * (math.Log(omega) - eulerGamma)
	wantVar := math.Pow(10/math.Ln10, 2)*math.Pi*math.Pi/6 + sigmaDB*sigmaDB
	var checks []Check
	if a.MeanTolerance > 0 {
		checks = append(checks, check("log-envelope mean abs error (dB)",
			math.Abs(mean-wantMean), a.MeanTolerance, "<="))
	}
	if a.VarianceTolerance > 0 {
		checks = append(checks, check("log-envelope variance abs error (dB^2)",
			math.Abs(variance-wantVar), a.VarianceTolerance, "<="))
	}
	return checks, nil
}

// evalSegmentAutocorrelation compares the per-segment averaged ACF of one
// envelope against each trajectory segment's own Jakes model: one check per
// segment the run actually visited.
func evalSegmentAutocorrelation(a *AssertionSpec, data *runData) ([]Check, error) {
	segments := trajectorySegments(data.spec)
	acf := data.segACF[a.Envelope]
	maxLag := assertMaxLag(a)
	var checks []Check
	for si, seg := range segments {
		if si >= len(acf) || acf[si] == nil {
			// The run was shorter than the trajectory; unvisited segments have
			// no samples to gate.
			continue
		}
		var worst float64
		for d := 0; d <= maxLag; d++ {
			want := doppler.TheoreticalAutocorrelation(seg.NormalizedDoppler, d)
			if dev := math.Abs(acf[si][d] - want); dev > worst {
				worst = dev
			}
		}
		checks = append(checks, check(
			fmt.Sprintf("segment %d (fm=%g): worst acf deviation from J0 over lags 0..%d", si, seg.NormalizedDoppler, maxLag),
			worst, a.Tolerance, "<="))
	}
	if len(checks) == 0 {
		return nil, fmt.Errorf("segment_autocorrelation: no trajectory segment was visited: %w", ErrBadSpec)
	}
	return checks, nil
}

func evalPSDForcing(a *AssertionSpec, data *runData) ([]Check, error) {
	var checks []Check
	clamped := float64(data.forced.NumClamped)
	if a.MinClamped > 0 {
		checks = append(checks, check("clamped eigenvalues", clamped, float64(a.MinClamped), ">="))
	}
	if a.MaxClamped != nil {
		checks = append(checks, check("clamped eigenvalues", clamped, float64(*a.MaxClamped), "<="))
	}
	if a.MaxFrobeniusError > 0 {
		checks = append(checks, check("forcing Frobenius error", data.forced.FrobeniusError, a.MaxFrobeniusError, "<="))
	}
	if a.ExpectCholeskyFailure {
		failed := 0.0
		if _, _, err := baseline.Coloring(chanspec.MethodBeaulieuMerani, data.target); err != nil {
			failed = 1
		}
		checks = append(checks, check("cholesky baseline fails", failed, 1, "=="))
	}
	if a.BeatsEpsilonClamp {
		_, epsError, err := baseline.EpsilonClamp(data.target, baseline.DefaultEpsilon)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check("zero-clamp error vs eps-clamp",
			data.forced.FrobeniusError, epsError+1e-12, "<="))
	}
	return checks, nil
}

// evalComparison runs the scenario's covariance target through every listed
// generation method side by side: construction outcomes are classified
// against the documented failure classes, OK rows generate the spec's draw
// count through the method's batched path and are measured against the
// (unforced) target, and every row lands in the Result's comparison table.
// Each method draws from its own streams seeded by the spec seed, so the
// table is deterministic.
func evalComparison(a *AssertionSpec, data *runData) ([]Check, error) {
	spec := data.spec
	var checks []Check
	for i := range a.Methods {
		row := &a.Methods[i]
		method := chanspec.NormalizeMethod(row.Method)
		want := row.Outcome
		if want == "" {
			want = OutcomeOK
		}
		outcome := MethodOutcome{Method: method}
		gen, err := backend.New(method, chanspec.FadingRayleigh, nil, data.target, spec.Seed)
		switch {
		case err == nil:
			outcome.Outcome = OutcomeOK
		case errors.Is(err, baseline.ErrUnsupported):
			outcome.Outcome = OutcomeUnsupported
			outcome.Err = err.Error()
		case errors.Is(err, baseline.ErrSetupFailed):
			outcome.Outcome = OutcomeSetupFailed
			outcome.Err = err.Error()
		default:
			// Not a documented failure class: a real configuration error.
			return nil, fmt.Errorf("comparison method %q: %w", method, err)
		}
		checks = append(checks, check(
			fmt.Sprintf("%s: outcome %s (want %s)", method, outcome.Outcome, want),
			boolObserved(outcome.Outcome == want), 1, "=="))
		if outcome.Outcome == OutcomeOK {
			if err := measureMethod(gen, data, &outcome); err != nil {
				return nil, fmt.Errorf("comparison method %q: %w", method, err)
			}
			if row.MaxAbsError > 0 {
				checks = append(checks, check(
					fmt.Sprintf("%s: cov max abs error", method),
					outcome.CovMaxAbsError, row.MaxAbsError, "<="))
			}
			if row.MinAbsError > 0 {
				checks = append(checks, check(
					fmt.Sprintf("%s: cov defect floor", method),
					outcome.CovMaxAbsError, row.MinAbsError, ">="))
			}
			if row.MeanTolerance > 0 {
				checks = append(checks, check(
					fmt.Sprintf("%s: envelope mean error (Eq. 14)", method),
					outcome.EnvelopeMeanError, row.MeanTolerance, "<="))
			}
			if row.VarianceTolerance > 0 {
				checks = append(checks, check(
					fmt.Sprintf("%s: envelope variance error (Eq. 15)", method),
					outcome.EnvelopeVarianceError, row.VarianceTolerance, "<="))
			}
		}
		data.comparison = append(data.comparison, outcome)
	}
	return checks, nil
}

// measureMethod generates the spec's draw count through the method's batched
// path and fills the outcome's covariance and envelope-moment measurements
// (envelope 0, against the target's desired power).
func measureMethod(gen *core.SnapshotGenerator, data *runData, outcome *MethodOutcome) error {
	draws := data.spec.Generation.Draws
	batch := make([]core.Snapshot, draws)
	if err := gen.GenerateBatchInto(batch, data.spec.Generation.Workers); err != nil {
		return err
	}
	samples := make([][]complex128, draws)
	env := make([]float64, draws)
	for i := range batch {
		samples[i] = batch[i].Gaussian
		env[i] = batch[i].Envelopes[0]
	}
	cov, err := stats.SampleCovariance(samples)
	if err != nil {
		return err
	}
	cmp, err := stats.CompareCovariance(cov, data.target)
	if err != nil {
		return err
	}
	outcome.CovMaxAbsError = cmp.MaxAbs
	outcome.CovRelFrobenius = cmp.Relative
	mean, err := stats.Mean(env)
	if err != nil {
		return err
	}
	variance, err := stats.Variance(env)
	if err != nil {
		return err
	}
	power := real(data.target.At(0, 0))
	wantMean, err := core.ExpectedEnvelopeMean(power)
	if err != nil {
		return err
	}
	wantVar, err := core.GaussianPowerToEnvelopeVariance(power)
	if err != nil {
		return err
	}
	outcome.EnvelopeMeanError = math.Abs(mean-wantMean) / wantMean
	outcome.EnvelopeVarianceError = math.Abs(variance-wantVar) / wantVar
	return nil
}

// boolObserved encodes a pass/fail observation as the 1/0 a Check carries.
func boolObserved(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// identityUnits caps the units of work an identity assertion regenerates.
func identityUnits(a *AssertionSpec, available, fallback int) int {
	units := a.Units
	if units == 0 {
		units = fallback
	}
	if units > available {
		units = available
	}
	return units
}

func evalIntoIdentity(a *AssertionSpec, data *runData) ([]Check, error) {
	spec := data.spec
	var mismatches float64
	switch spec.Generation.Mode {
	case ModeSnapshot, ModeBatched:
		units := identityUnits(a, spec.Generation.Draws, 256)
		n := data.target.Rows()
		gaussian := make([]complex128, n)
		env := make([]float64, n)
		alloc, err := backend.New(spec.Generation.Method, spec.Model.Fading, spec.Model.Params, data.target, spec.Seed)
		if err != nil {
			return nil, err
		}
		into, err := backend.New(spec.Generation.Method, spec.Model.Fading, spec.Model.Params, data.target, spec.Seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < units; i++ {
			s := alloc.Generate()
			if err := into.GenerateInto(gaussian, env); err != nil {
				return nil, err
			}
			for j := 0; j < n; j++ {
				if s.Gaussian[j] != gaussian[j] || s.Envelopes[j] != env[j] {
					mismatches++
				}
			}
		}
	case ModeRealtime:
		units := identityUnits(a, spec.Generation.Blocks, 2)
		gen, err := newRealtimeGenerator(spec, data.target)
		if err != nil {
			return nil, err
		}
		// One twin fills a fresh Block per unit, the other reuses one
		// pre-shaped Block; each has its own scratch.
		allocScratch, intoScratch := gen.NewBlockScratch(), gen.NewBlockScratch()
		dst := core.NewBlock(gen.N(), gen.BlockLength())
		for i := uint64(0); i < uint64(units); i++ {
			b := &core.Block{}
			if err := gen.GenerateBlockAt(i, b, allocScratch); err != nil {
				return nil, err
			}
			if err := gen.GenerateBlockAt(i, dst, intoScratch); err != nil {
				return nil, err
			}
			mismatches += blockMismatches(b, dst)
		}
	}
	return []Check{check("allocating vs Into mismatched values", mismatches, 0, "==")}, nil
}

func evalParallelIdentity(a *AssertionSpec, data *runData) ([]Check, error) {
	spec := data.spec
	workers := a.Workers
	if workers == 0 {
		workers = 4
	}
	var mismatches float64
	switch spec.Generation.Mode {
	case ModeBatched:
		units := identityUnits(a, spec.Generation.Draws, 1024)
		serial, parallel, err := batchPair(data, units, 1, workers)
		if err != nil {
			return nil, err
		}
		for i := range serial {
			for j := range serial[i].Gaussian {
				if serial[i].Gaussian[j] != parallel[i].Gaussian[j] ||
					serial[i].Envelopes[j] != parallel[i].Envelopes[j] {
					mismatches++
				}
			}
		}
	case ModeRealtime:
		units := identityUnits(a, spec.Generation.Blocks, 2)
		serial, parallel, err := blockPair(data, units, 1, workers)
		if err != nil {
			return nil, err
		}
		for i := range serial {
			mismatches += blockMismatches(serial[i], parallel[i])
		}
	default:
		return nil, fmt.Errorf("parallel_identity unsupported in %s mode: %w", spec.Generation.Mode, ErrBadSpec)
	}
	return []Check{check(fmt.Sprintf("serial vs %d-worker mismatched values", workers), mismatches, 0, "==")}, nil
}

// batchPair regenerates units snapshots twice from the spec seed through the
// spec's backend, once per worker count.
func batchPair(data *runData, units, workersA, workersB int) (a, b []core.Snapshot, err error) {
	run := func(workers int) ([]core.Snapshot, error) {
		gen, err := backend.New(data.spec.Generation.Method, data.spec.Model.Fading,
			data.spec.Model.Params, data.target, data.spec.Seed)
		if err != nil {
			return nil, err
		}
		dst := make([]core.Snapshot, units)
		if err := gen.GenerateBatchInto(dst, workers); err != nil {
			return nil, err
		}
		return dst, nil
	}
	if a, err = run(workersA); err != nil {
		return nil, nil, err
	}
	if b, err = run(workersB); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// blockPair regenerates units realtime blocks twice from the spec seed, once
// per worker count.
func blockPair(data *runData, units, workersA, workersB int) (a, b []*core.Block, err error) {
	run := func(workers int) ([]*core.Block, error) {
		gen, err := newRealtimeGenerator(data.spec, data.target)
		if err != nil {
			return nil, err
		}
		dst := make([]*core.Block, units)
		for i := range dst {
			dst[i] = core.NewBlock(gen.N(), gen.BlockLength())
		}
		if err := gen.GenerateBlocksAt(0, dst, workers); err != nil {
			return nil, err
		}
		return dst, nil
	}
	if a, err = run(workersA); err != nil {
		return nil, nil, err
	}
	if b, err = run(workersB); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// blockMismatches counts value positions where two blocks differ bitwise.
func blockMismatches(a, b *core.Block) float64 {
	var mismatches float64
	for j := range a.Gaussian {
		for l := range a.Gaussian[j] {
			if a.Gaussian[j][l] != b.Gaussian[j][l] || a.Envelopes[j][l] != b.Envelopes[j][l] {
				mismatches++
			}
		}
	}
	return mismatches
}
