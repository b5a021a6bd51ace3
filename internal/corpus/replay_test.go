package corpus

import (
	"strings"
	"testing"
)

// replayPlan keeps the live-replay test fast: realtime-only axes so every
// valid entry is replayable, and a full invalid cycle for the 400-path gate.
func replayPlan() *Plan {
	return &Plan{
		Name:    "rp",
		Seed:    11,
		Valid:   5,
		Invalid: 18,
		Axes: Axes{
			Modes: []string{"realtime"},
		},
		Generation: GenSizes{
			Draws:      8,
			Blocks:     4,
			IDFTPoints: 128,
			MaxWorkers: 4,
		},
	}
}

// TestReplayByteIdentity is the tentpole gate run in-process: every
// replayable corpus spec must stream byte-identically to the engine
// reference across chunkings and a mid-stream resume, and
// every invalid body must be rejected with 400 {code: "bad_spec"}.
func TestReplayByteIdentity(t *testing.T) {
	c, err := Generate(replayPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	report, err := Replay(c, ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !report.OK() {
		t.Fatalf("replay violations:\n%s", strings.Join(report.Failures, "\n"))
	}
	if report.Servers != 1 {
		t.Errorf("Servers = %d, want 1", report.Servers)
	}
	if report.Replayed != len(c.Valid) {
		t.Errorf("Replayed = %d, want %d (realtime-only plan)", report.Replayed, len(c.Valid))
	}
	// 3 chunkings + 1 resume pass per spec per server.
	wantPasses := report.Servers * report.Replayed * 4
	if report.Passes != wantPasses {
		t.Errorf("Passes = %d, want %d", report.Passes, wantPasses)
	}
	wantRejected := report.Servers * len(c.Invalid)
	if report.Rejected != wantRejected {
		t.Errorf("Rejected = %d, want %d", report.Rejected, wantRejected)
	}
}

// TestReplayTokenResume is the corpus-wide statelessness gate: every
// replayable spec, created on one server, must stream byte-identically on a
// second server that shares only the signing key — full range and from
// halfway, via the session token alone.
func TestReplayTokenResume(t *testing.T) {
	c, err := Generate(replayPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	report, err := Replay(c, ReplayOptions{TokenResume: true})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !report.OK() {
		t.Fatalf("replay violations:\n%s", strings.Join(report.Failures, "\n"))
	}
	// One full pass plus one halfway resume per replayable spec (every plan
	// spec streams more than one block, so halfway is always > 0).
	if want := 2 * report.Replayed; report.TokenResumes != want {
		t.Errorf("TokenResumes = %d, want %d", report.TokenResumes, want)
	}
	if report.Replayed != len(c.Valid) {
		t.Errorf("Replayed = %d, want %d", report.Replayed, len(c.Valid))
	}
}

// TestReplayTokenResumeRejectsLiveAddr pins the in-process-only contract.
func TestReplayTokenResumeRejectsLiveAddr(t *testing.T) {
	c, err := Generate(replayPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if _, err := Replay(c, ReplayOptions{Addr: "http://127.0.0.1:1", TokenResume: true}); err == nil {
		t.Fatal("token resume against a live address must fail")
	}
}

// TestEngineSumDetectsSpecChange guards the reference itself: two sessions
// differing only in seed must hash differently (a reference blind to the
// spec would make every byte-identity comparison vacuous).
func TestEngineSumDetectsSpecChange(t *testing.T) {
	c, err := Generate(replayPlan())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var entry *ValidEntry
	for _, e := range c.Valid {
		if e.Session != nil {
			entry = e
			break
		}
	}
	if entry == nil {
		t.Fatal("no replayable entry")
	}
	a, err := EngineSum(entry.Session, ReplayOptions{}.Limits, 0)
	if err != nil {
		t.Fatalf("EngineSum: %v", err)
	}
	other := *entry.Session
	other.Seed++
	b, err := EngineSum(&other, ReplayOptions{}.Limits, 0)
	if err != nil {
		t.Fatalf("EngineSum (reseeded): %v", err)
	}
	if a == b {
		t.Error("streams with different seeds hashed identically")
	}
}
