package slolab

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/token"
)

// scalingKeyring is the fixed signing keyring every sweep replica shares, so
// a session token minted on replica 0 verifies everywhere. The value is a
// test fixture, not a secret: the replicas live on loopback for the duration
// of the sweep, and a fixed key keeps the run deterministic.
const scalingKeyring = "slolab:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// ScalingReport is the horizontal-scaling section of a Summary: one measured
// point per replica count of the sweep.
type ScalingReport struct {
	Points []ScalingPoint `json:"points"`
}

// ScalingPoint is one replica count's measurement.
type ScalingPoint struct {
	Replicas     int     `json:"replicas"`
	Blocks       uint64  `json:"blocks"`
	Seconds      float64 `json:"seconds"`
	BlocksPerSec float64 `json:"blocks_per_sec"`
	// Speedup is BlocksPerSec relative to the replicas=1 point; Efficiency
	// is Speedup/Replicas (1.0 = perfectly linear scaling).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// TokenRebuilds sums fadingd_token_rebuilds_total across the replicas:
	// the streams served purely from the token by a replica that never saw
	// the create. Zero at replicas=1; positive beyond it, or the sweep never
	// exercised the stateless contract.
	TokenRebuilds uint64 `json:"token_rebuilds"`
}

// runScalingSweep is the Scaling-mode Run body: for each replica count it
// starts that many token-sharing in-process replicas, creates the client
// sessions on replica 0 only, and streams the inject units round-robined
// across all replicas via the session tokens — the stateless scale-out
// contract of docs/cluster.md measured end to end.
func (e *engine) runScalingSweep() (*Summary, error) {
	if e.opts.Addr != "" {
		return nil, fmt.Errorf("slolab %q: scaling sweeps start their own replicas and cannot target an external address: %w",
			e.spec.Name, ErrBadSpec)
	}
	kr, err := token.ParseKeyring(scalingKeyring)
	if err != nil {
		return nil, fmt.Errorf("slolab: scaling keyring: %w", err)
	}
	sum := e.newSummary()
	samples := map[string]*phaseAccum{}
	report := &ScalingReport{}
	for _, replicas := range e.spec.Scaling.Replicas {
		acc := newPhaseAccum()
		point, err := e.runScalingPoint(kr, replicas, acc)
		if err != nil {
			return nil, err
		}
		name := scalingPhase(replicas)
		samples[name] = acc
		sum.Phases[name] = &acc.m
		report.Points = append(report.Points, *point)
		e.logf("scenario %s: %s done: %d blocks at %.1f blk/s, %d token rebuilds, %d errors",
			e.spec.Name, name, point.Blocks, point.BlocksPerSec, point.TokenRebuilds, acc.m.Errors)
	}
	if base := report.Points[0].BlocksPerSec; base > 0 {
		for i := range report.Points {
			p := &report.Points[i]
			p.Speedup = p.BlocksPerSec / base
			p.Efficiency = p.Speedup / float64(p.Replicas)
		}
	}
	sum.Scaling = report

	Evaluate(e.spec, sum)
	if e.opts.ArtifactsDir != "" {
		if err := writeArtifacts(e.opts.ArtifactsDir, e.spec.Name, sum, samples); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// runScalingPoint measures one replica count. The warm pass (Warmup.Units
// blocks) fans the sessions out so every replica pays its one-time token
// rebuild and setup-cache fill before the clock starts; the measured pass
// (Inject.Units blocks) is what lands in the point and the phase metrics.
func (e *engine) runScalingPoint(kr *token.Keyring, replicas int, acc *phaseAccum) (*ScalingPoint, error) {
	cfg := e.spec.Server.config()
	cfg.Keyring = kr
	bases := make([]string, replicas)
	closers := make([]func(), 0, replicas)
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i := range bases {
		base, stop, err := service.ServeLoopback(cfg)
		if err != nil {
			return nil, fmt.Errorf("slolab: scaling: %w", err)
		}
		bases[i] = base
		closers = append(closers, stop)
	}

	// Create every client's session on replica 0 only; the other replicas
	// learn of the sessions through their tokens alone.
	clients := make([]*Client, e.spec.Clients)
	infos := make([]*SessionInfo, e.spec.Clients)
	for c := range clients {
		clients[c] = NewClient(ClientConfig{
			Base: bases[0],
			HTTP: &http.Client{Transport: &http.Transport{}},
			Seed: e.spec.Seed + int64(c),
		})
		t0 := time.Now()
		info, stats, err := clients[c].Create(e.sessionJSON(e.spec.Seed + int64(c)))
		acc.create.Record(time.Since(t0))
		acc.addCreate(stats, err != nil)
		if err != nil {
			return nil, fmt.Errorf("slolab: scaling primary session: %w", err)
		}
		if info.Token == "" {
			return nil, fmt.Errorf("slolab: scaling replica minted no session token")
		}
		infos[c] = info
	}

	pass := func(units int, sampler *Sampler, record bool) {
		if units <= 0 {
			return
		}
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				res, err := clients[c].Stream(infos[c], StreamOptions{
					Count:      uint64(units),
					PerRequest: e.spec.blocksPerRequest(),
					Bases:      bases,
					Token:      infos[c].Token,
					Sampler:    sampler,
				})
				if record {
					acc.addStream(res, err != nil)
				} else if err != nil {
					acc.addError()
				}
			}(c)
		}
		wg.Wait()
	}

	pass(e.spec.Phases.Warmup.Units, nil, false)

	t0 := time.Now()
	pass(e.spec.Phases.Inject.Units, acc.block, true)
	acc.m.Seconds = time.Since(t0).Seconds()
	if acc.m.Seconds > 0 {
		acc.m.BlocksPerSec = float64(acc.m.Blocks) / acc.m.Seconds
	}
	acc.m.BlockLatency = acc.block.Summary()
	acc.m.CreateLatency = acc.create.Summary()

	point := &ScalingPoint{
		Replicas:     replicas,
		Blocks:       acc.m.Blocks,
		Seconds:      acc.m.Seconds,
		BlocksPerSec: acc.m.BlocksPerSec,
	}
	for _, base := range bases {
		n, err := scrapeRebuilds(base)
		if err != nil {
			return nil, err
		}
		point.TokenRebuilds += n
	}
	return point, nil
}

// scrapeRebuilds reads fadingd_token_rebuilds_total from one replica's
// /metrics exposition.
func scrapeRebuilds(base string) (uint64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("slolab: scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "fadingd_token_rebuilds_total "); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("slolab: parse token rebuilds %q: %w", v, err)
			}
			return n, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("slolab: scrape metrics: %w", err)
	}
	return 0, fmt.Errorf("slolab: metrics do not expose fadingd_token_rebuilds_total")
}
