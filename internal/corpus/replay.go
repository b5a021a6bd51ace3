package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	rayleigh "repro"
	"repro/internal/service"
	"repro/internal/slolab"
	"repro/internal/token"
)

// ReplayOptions shapes one replay pass.
type ReplayOptions struct {
	// Addr is the base URL of a live fadingd ("http://host:port"). Empty
	// starts an in-process server instead.
	Addr string
	// Limits bounds spec admission on both the engine path and the
	// in-process servers; the zero value selects the service defaults.
	Limits service.Limits
	// TokenResume additionally proves the stateless-cluster contract of
	// docs/cluster.md over the corpus: every replayable spec is created on
	// one in-process server and resumed — full range and from halfway — on a
	// second server that shares only the signing key, via the session token
	// alone. Each pass must hash to the same engine reference. In-process
	// only (the sweep owns both servers), so incompatible with Addr.
	TokenResume bool
}

// ReplayReport is the outcome of one replay pass.
type ReplayReport struct {
	// Servers counts the server targets replayed against: the live address
	// or the one in-process server.
	Servers int
	// Replayed counts the replayable corpus entries streamed.
	Replayed int
	// Passes counts the live stream passes whose hash was compared against
	// the engine reference (chunkings plus the resume point, per spec).
	Passes int
	// Rejected counts the invalid bodies the server correctly answered with
	// 400 {code: "bad_spec"}.
	Rejected int
	// TokenResumes counts the token-only cross-server passes whose hash
	// matched the engine reference (TokenResume mode only).
	TokenResumes int
	// Failures holds one line per contract violation: a hash mismatch, an
	// invalid body not rejected as specified, or a replayable spec a server
	// refused. Empty means the corpus replayed byte-identically.
	Failures []string
}

// OK reports whether the pass found no violation.
func (r *ReplayReport) OK() bool { return len(r.Failures) == 0 }

// EngineSum computes the hex SHA-256 over the binary frames [from, blocks)
// of the stream the service would serve for the session spec — the
// in-process reference of the byte-identity gate. Frames are encoded with
// the Gaussian payload, matching the replay client's requests.
func EngineSum(sess *service.SessionSpec, limits service.Limits, from uint64) (string, error) {
	stream, err := service.NewStreamFromSpec(sess, limits)
	if err != nil {
		return "", err
	}
	cur, err := stream.NewCursor()
	if err != nil {
		return "", err
	}
	var blk rayleigh.Block
	var enc service.FrameEncoder
	h := sha256.New()
	for i := from; i < uint64(sess.Blocks); i++ {
		if err := cur.BlockAt(i, &blk); err != nil {
			return "", err
		}
		if _, err := enc.Encode(h, i, &blk, true); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// replayServer is one replay target.
type replayServer struct {
	label string
	base  string
	close func()
}

// startServer resolves the replay target: the live address when given,
// else an in-process fadingd.
func startServer(opts ReplayOptions) (replayServer, error) {
	if opts.Addr != "" {
		return replayServer{label: "live " + opts.Addr, base: opts.Addr, close: func() {}}, nil
	}
	base, stop, err := service.ServeLoopback(service.Config{Limits: opts.Limits})
	if err != nil {
		return replayServer{}, fmt.Errorf("corpus: %w", err)
	}
	return replayServer{label: "in-process", base: base, close: stop}, nil
}

// Replay runs the corpus's byte-identity and 400-path gates against the
// target: each replayable spec is streamed whole, in single-block chunks, in
// uneven chunks, and resumed from the middle of the stream, and every pass
// must hash to the engine reference computed in-process; each invalid body
// must be answered with 400 {code: "bad_spec"} and a non-empty error. The
// returned report lists every violation; transport-level failures (a server
// that cannot be reached at all) surface as errors instead.
func Replay(c *Corpus, opts ReplayOptions) (*ReplayReport, error) {
	if opts.TokenResume && opts.Addr != "" {
		return nil, fmt.Errorf("corpus: token resume owns both servers and cannot target a live address")
	}
	srv, err := startServer(opts)
	if err != nil {
		return nil, err
	}
	defer srv.close()

	// The engine reference is a pure function of the spec: compute it once
	// per entry.
	var refs []reference
	for _, e := range c.Valid {
		if e.Session == nil {
			continue
		}
		half := uint64(e.Session.Blocks) / 2
		full, err := EngineSum(e.Session, opts.Limits, 0)
		if err != nil {
			return nil, fmt.Errorf("corpus: engine reference for %s: %w", e.Name, err)
		}
		resume, err := EngineSum(e.Session, opts.Limits, half)
		if err != nil {
			return nil, fmt.Errorf("corpus: engine reference for %s: %w", e.Name, err)
		}
		refs = append(refs, reference{entry: e, body: encodeJSON(e.Session), full: full, resume: resume, halfway: half})
	}

	report := &ReplayReport{Servers: 1, Replayed: len(refs)}
	client := slolab.NewClient(slolab.ClientConfig{Base: srv.base, Seed: 1})
	for _, ref := range refs {
		if err := replayOne(client, srv.label, ref.entry.Name, ref.body, ref.full, ref.resume, ref.halfway, report); err != nil {
			return nil, err
		}
	}
	for _, e := range c.Invalid {
		checkInvalid(srv.base, srv.label, e, report)
	}
	if opts.TokenResume {
		if err := tokenResumeSweep(refs, opts.Limits, report); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// reference is one replayable entry with its precomputed engine hashes.
type reference struct {
	entry   *ValidEntry
	body    []byte
	full    string
	resume  string
	halfway uint64
}

// replayTokenKeyring is the fixed signing keyring the token-resume pair
// shares. A fixture, not a secret: both servers live on loopback for the
// duration of the sweep.
const replayTokenKeyring = "corpus:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

// tokenResumeSweep creates every replayable spec on an origin server and
// streams it on a second server that shares only the signing key — no
// session table, no setup cache, nothing but the token — comparing every
// pass against the engine reference. This is the corpus-wide version of the
// cluster smoke test: the token must reconstruct each of the corpus's
// channel specs byte-identically.
func tokenResumeSweep(refs []reference, limits service.Limits, report *ReplayReport) error {
	kr, err := token.ParseKeyring(replayTokenKeyring)
	if err != nil {
		return fmt.Errorf("corpus: token keyring: %w", err)
	}
	cfg := service.Config{Limits: limits, Keyring: kr}
	var pair []replayServer
	for _, label := range []string{"token-origin", "token-resume"} {
		base, stop, err := service.ServeLoopback(cfg)
		if err != nil {
			for _, s := range pair {
				s.close()
			}
			return fmt.Errorf("corpus: %w", err)
		}
		pair = append(pair, replayServer{label: label, base: base, close: stop})
	}
	defer func() {
		for _, s := range pair {
			s.close()
		}
	}()

	origin := slolab.NewClient(slolab.ClientConfig{Base: pair[0].base, Seed: 2})
	resume := slolab.NewClient(slolab.ClientConfig{Base: pair[1].base, Seed: 3})
	for _, ref := range refs {
		info, _, err := origin.Create(ref.body)
		if err != nil {
			report.Failures = append(report.Failures,
				fmt.Sprintf("token-origin: %s: create refused: %v", ref.entry.Name, err))
			continue
		}
		if info.Token == "" {
			report.Failures = append(report.Failures,
				fmt.Sprintf("token-origin: %s: create minted no token", ref.entry.Name))
			origin.Delete(info.ID)
			continue
		}
		passes := []struct {
			from uint64
			want string
		}{{0, ref.full}}
		if ref.halfway > 0 {
			passes = append(passes, struct {
				from uint64
				want string
			}{ref.halfway, ref.resume})
		}
		for _, p := range passes {
			res, err := resume.Stream(info, slolab.StreamOptions{
				From:     p.from,
				Gaussian: true,
				Token:    info.Token,
			})
			if err != nil {
				report.Failures = append(report.Failures,
					fmt.Sprintf("token-resume: %s: stream from=%d: %v", ref.entry.Name, p.from, err))
				continue
			}
			if res.Sum256 != p.want {
				report.Failures = append(report.Failures,
					fmt.Sprintf("token-resume: %s: hash mismatch from=%d: got %s want %s",
						ref.entry.Name, p.from, res.Sum256, p.want))
				continue
			}
			report.TokenResumes++
		}
		origin.Delete(info.ID)
	}
	return nil
}

// replayOne streams one session against one server under every chunking and
// the mid-stream resume point, comparing each pass's hash against the engine
// reference.
func replayOne(client *slolab.Client, label, name string, body []byte, full, resume string, halfway uint64, report *ReplayReport) error {
	info, _, err := client.Create(body)
	if err != nil {
		report.Failures = append(report.Failures,
			fmt.Sprintf("%s: %s: create refused: %v", label, name, err))
		return nil
	}
	defer client.Delete(info.ID)

	blocks := info.Blocks
	// Whole stream, one block per request, and a chunk size that splits the
	// stream unevenly — the chunk boundaries are where resume bugs live.
	for _, per := range []int{0, 1, int(blocks)/2 + 1} {
		res, err := client.Stream(info, slolab.StreamOptions{Count: blocks, PerRequest: per, Gaussian: true})
		if err != nil {
			report.Failures = append(report.Failures,
				fmt.Sprintf("%s: %s: stream per=%d: %v", label, name, per, err))
			continue
		}
		report.Passes++
		if res.Sum256 != full {
			report.Failures = append(report.Failures,
				fmt.Sprintf("%s: %s: hash mismatch per=%d: got %s want %s", label, name, per, res.Sum256, full))
		}
	}
	if halfway > 0 {
		res, err := client.Stream(info, slolab.StreamOptions{From: halfway, Gaussian: true})
		if err != nil {
			report.Failures = append(report.Failures,
				fmt.Sprintf("%s: %s: stream from=%d: %v", label, name, halfway, err))
			return nil
		}
		report.Passes++
		if res.Sum256 != resume {
			report.Failures = append(report.Failures,
				fmt.Sprintf("%s: %s: resume hash mismatch from=%d: got %s want %s", label, name, halfway, res.Sum256, resume))
		}
	}
	return nil
}

// checkInvalid POSTs one invalid body and checks the machine-readable
// rejection contract: HTTP 400 with a {code: "bad_spec", error: …} envelope.
func checkInvalid(base, label string, e *InvalidEntry, report *ReplayReport) {
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(e.Data))
	if err != nil {
		report.Failures = append(report.Failures,
			fmt.Sprintf("%s: %s: post: %v", label, e.Name, err))
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		report.Failures = append(report.Failures,
			fmt.Sprintf("%s: %s: status %d, want 400", label, e.Name, resp.StatusCode))
		return
	}
	var envelope struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		report.Failures = append(report.Failures,
			fmt.Sprintf("%s: %s: unparseable error body %q", label, e.Name, bytes.TrimSpace(body)))
		return
	}
	if envelope.Code != "bad_spec" || envelope.Error == "" {
		report.Failures = append(report.Failures,
			fmt.Sprintf("%s: %s: error envelope {code: %q, error: %q}, want code \"bad_spec\" and a message", label, e.Name, envelope.Code, envelope.Error))
		return
	}
	report.Rejected++
}
