package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"

	"repro/internal/chanspec"
	"repro/internal/service"
)

// workload is one seeded traffic mix. README.md records why each exists and
// which layers it stresses.
type workload struct {
	name      string
	newKernel func() kernel
	// reps1 and reps2 are kernel repetitions per goroutine per probe on 1
	// and 2 goroutines; ref1 and ref2 are P_ref there, in repetitions per
	// second summed over goroutines, fixed when the benchmark landed.
	reps1, reps2 int
	ref1, ref2   float64
	// fading is model.fading of the Eq. (22) workloads; churn marks the
	// create/delete workload.
	fading string
	churn  bool
	n      int // envelopes per block
	// chunk is the blocks per stream GET of a long-lived session;
	// perSlice is how many GETs (or, for churn, create cycles) each
	// connection performs in one served slice.
	chunk, perSlice int
	// libPerSlice is the library blocks per library slice.
	libPerSlice int
	// warmServed and warmLib are the fixed warm-up block counts per
	// connection and per library cursor.
	warmServed, warmLib int
	// checkEvery keeps about one served frame in checkEvery for the
	// byte-for-byte check.
	checkEvery uint64
	// statBlocks is the fixed block sample of the statistics check.
	statBlocks int
	// replayBlocks is the blocks per spec the traced run replays.
	replayBlocks int
}

const blockLen = 4096 // M of every workload

var workloads = []*workload{
	{
		name: "paper-eq22", newKernel: newIFFTKernel,
		reps1: 40, reps2: 40, ref1: 2000, ref2: 4100,
		n: 3, chunk: 16, perSlice: 10, libPerSlice: 200,
		warmServed: 64, warmLib: 16, checkEvery: 256, statBlocks: 32, replayBlocks: 32,
	},
	{
		name: "nakagami-eq22", newKernel: newInvGammaKernel, fading: chanspec.FadingNakagamiM,
		reps1: 100, reps2: 100, ref1: 4700, ref2: 9500,
		n: 3, chunk: 16, perSlice: 1, libPerSlice: 8,
		warmServed: 4, warmLib: 1, checkEvery: 16, statBlocks: 24, replayBlocks: 8,
	},
	{
		name: "churn-n32", newKernel: newGEMMKernel, churn: true,
		reps1: 8, reps2: 8, ref1: 170, ref2: 310,
		n: 32, perSlice: 2, libPerSlice: 10,
		warmServed: 2, warmLib: 1, checkEvery: 16, statBlocks: 8, replayBlocks: 4,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Create kinds of the churn mix. The kind is what the request is, not what
// the server's cache did with it.
const (
	kindNewModel = iota // a ρ never used before
	kindNewSeed         // a ρ this connection used before, with a new seed
	kindRepeat          // an exact recent spec of this connection
	numKinds
)

var kindNames = [numKinds]string{"new_model", "new_seed", "repeat"}

// createOp is one churn create.
type createOp struct {
	Kind int
	Rho  float64
	Seed int64
}

// createsPerConn bounds each connection's churn sequence; a run wraps
// around it, which only turns later creates into repeats of older specs.
const createsPerConn = 4096

// inputs is everything a run derives from its seed. The server receives
// only the specs built from it.
type inputs struct {
	SessionSeeds [2]int64      // long-lived Eq. (22) sessions, one per connection
	LibSeed      int64         // the library cursor's stream
	Creates      [2][]createOp // churn: each connection's create sequence
	Salt         uint64        // selects the frames the byte-for-byte check keeps
}

func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	in := &inputs{Salt: rng.Uint64()}
	for c := range in.SessionSeeds {
		in.SessionSeeds[c] = rng.Int64N(1<<53) + 1
	}
	in.LibSeed = rng.Int64N(1<<53) + 1
	if !w.churn {
		return in
	}
	usedRho := make(map[float64]bool)
	var used [2][]float64
	for i := 0; i < createsPerConn; i++ {
		for c := 0; c < 2; c++ {
			kind := rng.IntN(numKinds)
			if i == 0 {
				kind = kindNewModel
			}
			var op createOp
			switch kind {
			case kindNewModel:
				rho := 0.0
				for rho == 0 || usedRho[rho] {
					rho = math.Round((0.05+0.9*rng.Float64())*1e6) / 1e6
				}
				usedRho[rho] = true
				used[c] = append(used[c], rho)
				op = createOp{Kind: kind, Rho: rho, Seed: rng.Int64N(1<<53) + 1}
			case kindNewSeed:
				op = createOp{Kind: kind, Rho: used[c][rng.IntN(len(used[c]))], Seed: rng.Int64N(1<<53) + 1}
			case kindRepeat:
				prev := in.Creates[c]
				recent := prev[max(0, len(prev)-4):]
				op = recent[rng.IntN(len(recent))]
				op.Kind = kind
			}
			in.Creates[c] = append(in.Creates[c], op)
		}
	}
	return in
}

// eq22Spec is the paper's Section 6 channel: Eq. (22) covariance, M = 4096,
// fm = 0.05, the generalized method, optionally with Nakagami-m fading at
// m = 2.5.
func eq22Spec(fading string, seed int64) service.SessionSpec {
	s := service.SessionSpec{
		Model:             chanspec.Model{Type: chanspec.ModelEq22},
		Method:            "generalized",
		Seed:              seed,
		Blocks:            1 << 20,
		IDFTPoints:        blockLen,
		NormalizedDoppler: 0.05,
	}
	if fading != "" {
		s.Model.Fading = fading
		s.Model.Params = &chanspec.FadingParams{M: 2.5}
	}
	return s
}

// churnBlocks is the length of a churn session: 4 blocks read by id, then
// 4 by token.
const churnBlocks = 8

// churnSpec is an N = 32 exponential-correlation channel.
func churnSpec(op createOp) service.SessionSpec {
	return service.SessionSpec{
		Model:             chanspec.Model{Type: chanspec.ModelExponential, N: 32, Rho: op.Rho},
		Method:            "generalized",
		Seed:              op.Seed,
		Blocks:            churnBlocks,
		IDFTPoints:        blockLen,
		NormalizedDoppler: 0.05,
	}
}

// specs returns the distinct specs a run drives, in first-use order: the
// two long-lived sessions, or the first limit churn creates.
func (in *inputs) specs(w *workload, limit int) []service.SessionSpec {
	if !w.churn {
		return []service.SessionSpec{eq22Spec(w.fading, in.SessionSeeds[0]), eq22Spec(w.fading, in.SessionSeeds[1])}
	}
	var out []service.SessionSpec
	seen := make(map[createOp]bool)
	for i := 0; i < createsPerConn && len(out) < limit; i++ {
		for c := 0; c < 2 && len(out) < limit; c++ {
			op := in.Creates[c][i]
			op.Kind = 0
			if !seen[op] {
				seen[op] = true
				out = append(out, churnSpec(op))
			}
		}
	}
	return out
}

// libSpec is the spec of the library phase's stream.
func (in *inputs) libSpec(w *workload) service.SessionSpec {
	if !w.churn {
		return eq22Spec(w.fading, in.LibSeed)
	}
	return churnSpec(createOp{Rho: in.Creates[0][0].Rho, Seed: in.LibSeed})
}

func specJSON(s service.SessionSpec) []byte {
	// A SessionSpec holds only plain fields, so encoding cannot fail.
	b, _ := json.Marshal(s)
	return b
}

// keepFrame reports whether the byte-for-byte check keeps block index of
// the session with the given seed.
func (in *inputs) keepFrame(w *workload, seed int64, index uint64) bool {
	x := in.Salt ^ uint64(seed)*0x9E3779B97F4A7C15 ^ index*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x%w.checkEvery == 0
}
