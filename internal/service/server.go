package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/chanspec"
	"repro/internal/token"
)

// Config tunes a Server; every zero field selects its default. Capacity
// guidance lives in docs/service.md.
type Config struct {
	// Workers is the size of the shared generation pool. Default
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pool's job queue — the global backpressure
	// valve. Default 2×Workers.
	QueueDepth int
	// Window is the per-stream budget of in-flight blocks (the bounded
	// per-session queue): a stream keeps at most Window generation jobs
	// outstanding, so a slow reader ties up at most Window block buffers and
	// zero workers. Default 4.
	Window int
	// SessionTTL evicts sessions idle longer than this. Default 5m.
	SessionTTL time.Duration
	// SweepInterval is the eviction cadence. Default SessionTTL/4.
	SweepInterval time.Duration
	// MaxSessions caps the session table. Default 256.
	MaxSessions int
	// Shards is the session-table shard count, rounded up to a power of two.
	// Default: the smallest power of two covering GOMAXPROCS.
	Shards int
	// CacheSpecs bounds the content-addressed setup cache: at most this many
	// spec setup artifacts (coloring root, Doppler plan — one immutable
	// Stream per distinct spec hash) are kept for reuse across sessions.
	// Default 256; negative disables caching.
	CacheSpecs int
	// CreateTimeout bounds how long one POST /v1/sessions may spend in spec
	// setup (covariance assembly, eigendecomposition, Doppler plan) before the
	// request is answered 503 + Retry-After. The setup keeps running in the
	// background and lands in the setup cache, so an obedient retry is a cheap
	// cache hit. Zero disables the bound (the library default; cmd/fadingd
	// passes its -create-timeout flag, default 30s).
	CreateTimeout time.Duration
	// Limits bounds what one spec may request.
	Limits Limits
	// Keyring signs session tokens on create and verifies them on resume,
	// making every replica holding the same keys interchangeable: the token
	// carries the full reconstruction tuple, so a resume landing on a replica
	// that never saw the create rebuilds the stream locally (see
	// docs/cluster.md). Nil disables tokens — no token in create responses,
	// and stream resumes require a local table entry.
	Keyring *token.Keyring
	// TokenTTL bounds token validity from mint time; GET /v1/sessions/{id}
	// re-issues a fresh token for live sessions. Zero selects 1h; negative
	// disables expiry.
	TokenTTL time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = c.SessionTTL / 4
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.CacheSpecs == 0 {
		c.CacheSpecs = 256
	}
	if c.TokenTTL == 0 {
		c.TokenTTL = time.Hour
	}
	c.Limits = c.Limits.withDefaults()
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the fadingd HTTP service: a session manager, a bounded worker
// pool, and the handlers tying them together. Create one with New, mount
// Handler on an http.Server, and call Close after the http.Server has shut
// down.
type Server struct {
	cfg      Config
	manager  *Manager
	pool     *pool
	cache    *setupCache
	metrics  *metrics
	mux      *http.ServeMux
	shutdown chan struct{}
	once     sync.Once
	janitor  sync.WaitGroup
}

// New builds and starts a Server (the janitor and worker goroutines run
// until Close).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := &metrics{start: cfg.now()}
	cache := newSetupCache(cfg.CacheSpecs, m)
	s := &Server{
		cfg: cfg,
		// Free lists sized to the worker count keep a fully fanned-out
		// session recycling instead of allocating.
		manager:  newManager(cfg.Shards, cfg.SessionTTL, cfg.MaxSessions, cfg.Workers+cfg.Window, cfg.now, m, cache),
		pool:     newPool(cfg.Workers, cfg.QueueDepth),
		cache:    cache,
		metrics:  m,
		mux:      http.NewServeMux(),
		shutdown: make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/methods", s.handleMethods)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.janitor.Add(1)
	go s.runJanitor()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginShutdown signals every in-flight stream to terminate at its next
// block boundary without tearing anything else down. Graceful shutdown is
// BeginShutdown → http.Server.Shutdown (which can now complete, since the
// streaming handlers return) → Close.
func (s *Server) BeginShutdown() {
	s.once.Do(func() { close(s.shutdown) })
}

// Close terminates every session and stream, stops the janitor and drains
// the worker pool. Call it after the enclosing http.Server has finished
// shutting down.
func (s *Server) Close() {
	s.BeginShutdown()
	s.manager.CloseAll()
	s.janitor.Wait()
	s.pool.close()
}

// runJanitor evicts idle sessions until shutdown.
func (s *Server) runJanitor() {
	defer s.janitor.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.manager.Sweep()
		case <-s.shutdown:
			return
		}
	}
}

// sessionInfo is the JSON shape of create and info responses.
type sessionInfo struct {
	ID string `json:"id"`
	// Method is the generation backend serving the session (normalized, so
	// an omitted spec method reads back as "generalized").
	Method string `json:"method"`
	// Fading is the fading model serving the session (normalized, so an
	// omitted model reads back as "rayleigh").
	Fading string `json:"fading"`
	// N and BlockLength describe the stream geometry; Blocks its total
	// length.
	N           int `json:"n"`
	BlockLength int `json:"block_length"`
	Blocks      int `json:"blocks"`
	// ClampedEigenvalues and ForcingError echo the PSD forcing applied to
	// the requested covariance (see Diagnostics in the library API): zero
	// for the conventional methods, which apply none.
	ClampedEigenvalues int     `json:"clamped_eigenvalues"`
	ForcingError       float64 `json:"forcing_frobenius_error"`
	// Spec echoes the accepted session spec.
	Spec json.RawMessage `json:"spec"`
	// Token is the signed self-describing resume token (present when the
	// server has a signing keyring): any replica sharing a verifying key
	// serves this session's blocks from it, table entry or not.
	Token string `json:"token,omitempty"`
}

// ErrCreateTimeout reports a session create whose spec setup outran
// Config.CreateTimeout. The setup keeps running in the background and its
// artifact lands in the setup cache, so retrying after the advertised
// Retry-After usually succeeds as a cache hit.
var ErrCreateTimeout = errors.New("service: session setup timed out")

// retryAfterSeconds is the Retry-After hint on 429/503 rejections. Capacity
// rejections clear on the next sweep, and the opportunistic create-path sweep
// runs at most once per opportunisticSweepGap (1s), so one second is the
// earliest a retry can observe freed capacity; for shutdown the hint tells a
// load balancer when to probe the replacement replica.
const retryAfterSeconds = 1

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	spec, err := ParseSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = spec.Validate(s.cfg.Limits)
	}
	if err != nil {
		s.metrics.specsRejected.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.createSession(spec)
	if err != nil {
		s.metrics.specsRejected.Add(1)
		// Overload answers are distinguishable by status and code: a full
		// table is 429 (this replica will have capacity again — retry here
		// after Retry-After), while shutdown and setup timeout are 503 (the
		// request may succeed elsewhere, or here after the hinted delay).
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrSessionLimit):
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrCreateTimeout):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.info(sess))
}

// createSession runs Manager.Create under the configured create timeout. On
// timeout the background create is not cancelled — spec setup is CPU-bound
// and uncancellable mid-decomposition — but its eventual session is deleted
// so nothing leaks, and the shared setup artifact stays cached for the retry.
func (s *Server) createSession(spec *SessionSpec) (*Session, error) {
	if s.cfg.CreateTimeout <= 0 {
		return s.manager.Create(spec)
	}
	type created struct {
		sess *Session
		err  error
	}
	ch := make(chan created, 1)
	go func() {
		sess, err := s.manager.Create(spec)
		ch <- created{sess, err}
	}()
	t := time.NewTimer(s.cfg.CreateTimeout)
	defer t.Stop()
	select {
	case c := <-ch:
		return c.sess, c.err
	case <-t.C:
		go func() {
			if c := <-ch; c.sess != nil {
				s.manager.Delete(c.sess.ID)
			}
		}()
		return nil, fmt.Errorf("%w after %s", ErrCreateTimeout, s.cfg.CreateTimeout)
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown session"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, s.info(sess))
}

func (s *Server) info(sess *Session) sessionInfo {
	diag := sess.stream.Diagnostics()
	si := sessionInfo{
		ID:                 sess.ID,
		Method:             chanspec.NormalizeMethod(sess.Spec.Method),
		Fading:             chanspec.NormalizeFading(sess.Spec.Model.Fading),
		N:                  sess.N(),
		BlockLength:        sess.BlockLength(),
		Blocks:             int(sess.Blocks()),
		ClampedEigenvalues: diag.ClampedEigenvalues,
		ForcingError:       diag.ApproximationError,
		Spec:               sess.Spec.canonical(),
	}
	if s.cfg.Keyring != nil {
		// Sign cannot fail for a live session (valid id, bounded spec); a
		// failure would only drop the token from the response.
		if tok, err := s.mintToken(sess); err == nil {
			si.Token = tok
			s.metrics.tokensIssued.Add(1)
		}
	}
	return si
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.manager.Delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, errors.New("service: unknown session"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleMethods serves the generation-backend catalog: the spec method
// values, each method's citation and the constraints under which it accepts
// a session's covariance target.
func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{"methods": chanspec.Methods()})
}

// handleModels serves the fading-model catalog: the model.fading spec values,
// each model's envelope distribution, parameters and constraints (see
// docs/models.md).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{"models": chanspec.FadingModels()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{
		"status":   "ok",
		"sessions": s.manager.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.manager.Len(), s.pool.queueDepth(), s.manager.ShardSizes(), s.cache.size(), s.cfg.now())
}

// trailerBlocksSent is the HTTP trailer carrying the number of blocks
// actually written. The X-Fadingd-Blocks header is a promise made before the
// first byte; a pool shutdown, eviction-by-DELETE or generation error
// mid-stream can only truncate the body, so the trailer is the in-band
// signal that lets a client distinguish a complete stream from a cut one.
const trailerBlocksSent = "X-Fadingd-Blocks-Sent"

// handleStream serves blocks [from, from+count) of a session as NDJSON or
// binary frames, flushing after every block. Block generation is pipelined
// through the shared pool with a window of in-flight jobs; blocks are
// written strictly in order, so the concatenated payload of any combination
// of resumed ranges is byte-identical to one from-0 pass.
//
// The session is touched once at stream start and once at stream end — never
// per block — and holds a stream reference in between, so TTL eviction can
// never cut a live stream no matter how slowly the client reads.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.manager.GetForStream(r.PathValue("id"))
	if !ok {
		// Local-table miss: the table is only a cache. A request carrying a
		// valid signed token rebuilds the session from its canonical spec —
		// byte-identical to the origin replica, because the stream is a pure
		// function of the spec.
		var err error
		sess, err = s.resumeFromToken(r)
		if err != nil {
			if !errors.Is(err, errUnknownSession) {
				s.metrics.tokenRejected.Add(1)
			}
			status := tokenErrorStatus(err)
			if status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			}
			writeError(w, status, err)
			return
		}
		s.metrics.tokenRebuilds.Add(1)
	}
	// Closure, not a direct defer: the release must read the clock at stream
	// end, and defer evaluates direct arguments at registration time.
	defer func() { sess.endStream(s.cfg.now()) }()
	q := r.URL.Query()
	from := uint64(0)
	if v := q.Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 63)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad from %q: %w", v, ErrBadSpec))
			return
		}
		from = parsed
	}
	if from >= sess.Blocks() {
		// Resuming at or past end-of-stream: the stream is finite and fully
		// consumed, which is a range error, not an empty success.
		writeError(w, http.StatusRequestedRangeNotSatisfiable,
			fmt.Errorf("service: from=%d past end of %d-block stream", from, sess.Blocks()))
		return
	}
	end := sess.Blocks()
	if v := q.Get("count"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 63)
		if err != nil || parsed == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad count %q: %w", v, ErrBadSpec))
			return
		}
		if from+parsed < end {
			end = from + parsed
		}
	}
	format := q.Get("format")
	switch format {
	case "", FormatNDJSON:
		format = FormatNDJSON
		w.Header().Set("Content-Type", "application/x-ndjson")
	case FormatBinary:
		w.Header().Set("Content-Type", "application/octet-stream")
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: unknown format %q: %w", format, ErrBadSpec))
		return
	}
	gaussian := q.Get("gaussian") == "1"

	w.Header().Set("X-Fadingd-Session", sess.ID)
	w.Header().Set("X-Fadingd-From", strconv.FormatUint(from, 10))
	w.Header().Set("X-Fadingd-Blocks", strconv.FormatUint(end-from, 10))
	// Predeclare the truncation-detection trailer; its value is committed
	// when the handler returns, after the last body byte.
	w.Header().Set("Trailer", trailerBlocksSent)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	s.metrics.streamsStarted.Add(1)
	s.metrics.activeStreams.Add(1)
	defer s.metrics.activeStreams.Add(-1)

	var sent uint64
	defer func() {
		w.Header().Set(trailerBlocksSent, strconv.FormatUint(sent, 10))
	}()

	enc := newFrameEncoder(format)
	ctx := r.Context()
	// pending is the stream's in-flight window, oldest first. Jobs complete
	// in any order on the pool; writing consumes them strictly in order.
	pending := make([]*blockJob, 0, s.cfg.Window)
	next := from
	for next < end || len(pending) > 0 {
		for len(pending) < s.cfg.Window && next < end {
			job := sess.acquireJob()
			job.index = next
			if err := s.pool.submit(ctx, sess.done, job); err != nil {
				// Not submitted: the job is clean, recycle it and stop.
				sess.releaseJob(job)
				return
			}
			pending = append(pending, job)
			next++
		}
		job := pending[0]
		select {
		case <-job.ready:
		case <-ctx.Done():
			return // abandon in-flight jobs; workers never block on them
		case <-sess.done:
			return // eviction mid-stream
		case <-s.shutdown:
			return
		}
		pending = pending[1:]
		if job.err != nil {
			// Headers are long gone; the only honest signal mid-stream is
			// truncation.
			return
		}
		bytes, err := enc.encode(w, job.index, job.block, gaussian)
		s.metrics.bytesWritten.Add(int64(bytes))
		if err != nil {
			return
		}
		sent++
		s.metrics.blocksServed.Add(1)
		s.metrics.samplesServed.Add(int64(sess.N() * sess.BlockLength()))
		sess.releaseJob(job)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// errorBody is the JSON error envelope of every non-2xx response: a
// machine-readable code (stable vocabulary, see docs/service.md) plus the
// human-readable message.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// errorCode maps an error and its HTTP status to the stable code vocabulary.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, ErrSessionLimit):
		return "session_limit"
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down"
	case errors.Is(err, ErrCreateTimeout):
		return "create_timeout"
	case errors.Is(err, token.ErrExpired):
		return "token_expired"
	case errors.Is(err, token.ErrUnknownKey):
		return "token_unknown_key"
	case errors.Is(err, token.ErrVersion):
		return "token_version"
	case errors.Is(err, token.ErrBadSignature), errors.Is(err, token.ErrMalformed),
		errors.Is(err, errTokensDisabled):
		return "token_invalid"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusRequestedRangeNotSatisfiable:
		return "range"
	case errors.Is(err, ErrBadSpec), status == http.StatusBadRequest:
		// Setup failures of conventional methods (ErrUnsupported,
		// ErrSetupFailed) are spec problems too: the spec named a method that
		// rejects its covariance.
		return "bad_spec"
	default:
		return "internal"
	}
}

// writeError sends a JSON error envelope carrying the stable error code. It
// is the one function licensed to write >=400 statuses directly; the errcodes
// analyzer routes every other handler through it.
//
// fadinglint:errwriter
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, errorBody{Code: errorCode(status, err), Error: err.Error()})
}

// writeJSON encodes v, ignoring write errors (the client is gone).
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Manager exposes the session table (tests and operational tooling).
func (s *Server) Manager() *Manager { return s.manager }
