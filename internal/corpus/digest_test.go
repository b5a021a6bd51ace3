package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	rayleigh "repro"
	"repro/internal/chanspec"
	"repro/internal/service"
)

// digestFile pins the generated bits: a change that moves any served or
// snapshot sample changes one of its digests.
const digestFile = "testdata/digests.json"

// farBlock is the random-access position whose frame each realtime digest
// row pins beside the sequential EngineSum.
const farBlock = uint64(1) << 40

// snapshotDraws is the length of each pinned snapshot sequence.
const snapshotDraws = 256

// Digests is the layout of digestFile.
type Digests struct {
	// Realtime holds one row per realtime spec of plans/corpus-full.json.
	Realtime []RealtimeDigest `json:"realtime"`
	// Snapshots holds one row per method × snapshot-capable fading model.
	Snapshots []SnapshotDigest `json:"snapshots"`
}

// RealtimeDigest pins one corpus session: EngineSum over its frames from
// block 0, and the SHA-256 of the binary frame of block farBlock.
type RealtimeDigest struct {
	Name      string `json:"name"`
	EngineSum string `json:"engine_sum"`
	FarBlock  string `json:"far_block"`
}

// SnapshotDigest pins the first snapshotDraws snapshots of one (target,
// method, fading model) generator: the SHA-256 over the little-endian bits of
// every Gaussian (real, imaginary) and envelope value, in draw order.
type SnapshotDigest struct {
	Target string `json:"target"`
	Method string `json:"method"`
	Fading string `json:"fading"`
	SHA256 string `json:"sha256"`
}

// TestOutputDigests regenerates every pinned digest and compares it with
// digestFile. Only amd64 is compared: there the SSE2 kernels and the Go loops
// agree bit for bit, while another GOARCH's compiler may fuse multiply-adds.
// On a mismatch the test prints the fresh file; committing it is a release
// note, since it means served bits moved.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output digests are pinned on amd64; GOARCH is %s", runtime.GOARCH)
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want Digests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	got := Digests{Realtime: realtimeDigests(t), Snapshots: snapshotDigests(t)}
	if len(got.Realtime) != 93 {
		t.Errorf("plans/corpus-full.json expands to %d realtime specs, want 93", len(got.Realtime))
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range max(len(got.Realtime), len(want.Realtime)) {
		if i >= len(got.Realtime) || i >= len(want.Realtime) || got.Realtime[i] != want.Realtime[i] {
			t.Errorf("realtime row %d differs", i)
		}
	}
	for i := range max(len(got.Snapshots), len(want.Snapshots)) {
		if i >= len(got.Snapshots) || i >= len(want.Snapshots) || got.Snapshots[i] != want.Snapshots[i] {
			t.Errorf("snapshot row %d differs", i)
		}
	}
	fresh, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Fatalf("generated output differs from %s; fresh file:\n%s", digestFile, fresh)
}

// realtimeDigests pins every realtime spec of plans/corpus-full.json, in
// corpus order.
func realtimeDigests(t *testing.T) []RealtimeDigest {
	plan, err := LoadPlan("../../plans/corpus-full.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(plan)
	if err != nil {
		t.Fatal(err)
	}
	var out []RealtimeDigest
	for _, e := range c.Valid {
		if e.Session == nil {
			continue
		}
		sum, err := EngineSum(e.Session, service.Limits{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		stream, err := service.NewStreamFromSpec(e.Session, service.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		cur, err := stream.NewCursor()
		if err != nil {
			t.Fatal(err)
		}
		var blk rayleigh.Block
		if err := cur.BlockAt(farBlock, &blk); err != nil {
			t.Fatalf("%s block %d: %v", e.Name, farBlock, err)
		}
		var enc service.FrameEncoder
		h := sha256.New()
		if _, err := enc.Encode(h, farBlock, &blk, true); err != nil {
			t.Fatal(err)
		}
		out = append(out, RealtimeDigest{Name: e.Name, EngineSum: sum, FarBlock: hex.EncodeToString(h.Sum(nil))})
	}
	return out
}

// snapshotDigests pins the snapshot sequence of every method on every
// snapshot-capable fading model: Eq. (23)'s spatial target at N = 3, and the
// ρ = 0.6 pair for Ertel–Reed, which only expresses two branches.
func snapshotDigests(t *testing.T) []SnapshotDigest {
	targets := map[string]chanspec.Model{
		"eq23":      {Type: chanspec.ModelSpatial, N: 3, SpacingWavelengths: 1, AngularSpreadRad: 0.17453292519943295},
		"rho06pair": {Type: chanspec.ModelConstant, N: 2, Rho: 0.6},
	}
	fadings := []struct {
		name   string
		params *chanspec.FadingParams
	}{
		{chanspec.FadingRayleigh, nil},
		{chanspec.FadingRician, &chanspec.FadingParams{KFactor: 4}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
		{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}},
	}
	var out []SnapshotDigest
	for _, info := range chanspec.Methods() {
		target := "eq23"
		if info.Name == chanspec.MethodErtelReed {
			target = "rho06pair"
		}
		model := targets[target]
		k, err := model.Build()
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]complex128, k.Rows())
		for i := range rows {
			rows[i] = k.Row(i)
		}
		for _, f := range fadings {
			gen, err := rayleigh.New(rayleigh.Config{
				Covariance: rows, Seed: 71, Method: info.Name, Fading: f.name, FadingParams: f.params,
			})
			if err != nil {
				t.Fatalf("%s/%s on %s: %v", info.Name, f.name, target, err)
			}
			snaps := make([]rayleigh.Snapshot, snapshotDraws)
			if err := gen.SnapshotsInto(snaps); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var word [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
			for _, s := range snaps {
				for j := range s.Gaussian {
					put(real(s.Gaussian[j]))
					put(imag(s.Gaussian[j]))
					put(s.Envelopes[j])
				}
			}
			out = append(out, SnapshotDigest{
				Target: target, Method: info.Name, Fading: f.name, SHA256: hex.EncodeToString(h.Sum(nil)),
			})
		}
	}
	return out
}
