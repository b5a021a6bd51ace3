package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rayleigh "repro"
)

// Session is one deterministic channel realization being served. The
// underlying Stream is immutable and random-access, so any goroutine holding
// a Cursor of it generates any of the session's blocks; the session only adds
// bookkeeping (identity, lifecycle, one parked reader).
type Session struct {
	// ID is the opaque session identifier handed to the client.
	ID string
	// Spec is the validated spec the session was created from.
	Spec SessionSpec

	stream *rayleigh.Stream
	n      int
	m      int
	blocks uint64 // total stream length

	lastActive atomic.Int64 // unix nanoseconds

	// streams counts live stream handlers. A nonzero count pins the session
	// against TTL eviction (Manager.Sweep); acquisition happens under the
	// table lock (Manager.GetForStream), release via endStream.
	streams atomic.Int64

	// done is closed exactly once when the session is evicted or deleted;
	// live streams check it before every block, so eviction ends them at
	// the next block boundary.
	done      chan struct{}
	closeOnce sync.Once

	// parked holds at most one reader for the session's next stream, so
	// steady-state serving reuses a warmed cursor and block instead of
	// allocating. A stream takes it with acquireReader and hands it back
	// with releaseReader.
	parked atomic.Pointer[reader]
}

// reader is one stream's generation state: a cursor over the session's
// Stream and the block it fills.
type reader struct {
	cur   *rayleigh.Cursor
	block rayleigh.Block
}

// newSession builds a session's bookkeeping around a prebuilt (possibly
// cache-shared) Stream.
func newSession(spec *SessionSpec, stream *rayleigh.Stream, now time.Time) *Session {
	return newSessionWithID(newSessionID(), spec, stream, now)
}

// newSessionWithID is newSession under a caller-supplied id: the
// token-rebuild path preserves the origin replica's id, so a session keeps
// one name across the whole fleet.
func newSessionWithID(id string, spec *SessionSpec, stream *rayleigh.Stream, now time.Time) *Session {
	s := &Session{
		ID:     id,
		Spec:   *spec,
		stream: stream,
		n:      stream.N(),
		m:      stream.BlockLength(),
		blocks: uint64(spec.Blocks),
		done:   make(chan struct{}),
	}
	s.lastActive.Store(now.UnixNano())
	return s
}

// newSessionID returns 16 random hex characters. Session IDs are the only
// nondeterministic part of the service; everything behind them is a pure
// function of the spec.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; dying loudly beats
		// serving guessable IDs.
		panic(fmt.Sprintf("service: session ID entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Stream returns the session's generation state. The Stream is immutable and
// may be shared with other sessions of the same spec (see setupCache); the
// pointer identity is what cache tests assert on.
func (s *Session) Stream() *rayleigh.Stream { return s.stream }

// N returns the envelope count per block.
func (s *Session) N() int { return s.n }

// BlockLength returns the samples per envelope per block.
func (s *Session) BlockLength() int { return s.m }

// Blocks returns the total stream length in blocks.
func (s *Session) Blocks() uint64 { return s.blocks }

// touch records client activity for TTL accounting.
func (s *Session) touch(now time.Time) { s.lastActive.Store(now.UnixNano()) }

// endStream releases a stream reference taken by Manager.GetForStream. The
// touch lands before the unpin so a sweep racing the release sees either a
// pinned session or a fresh idle clock — never an expired unpinned one.
func (s *Session) endStream(now time.Time) {
	s.touch(now)
	s.streams.Add(-1)
}

// idle reports how long the session has been untouched.
func (s *Session) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastActive.Load()))
}

// close marks the session dead: every live stream ends at its next block
// boundary. Idempotent.
func (s *Session) close() {
	s.closeOnce.Do(func() { close(s.done) })
}

// closed reports whether the session has been evicted or deleted.
func (s *Session) closed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// acquireReader takes the session's parked reader. When none is parked
// (the first stream, or a second stream running beside the one holding it)
// it builds a fresh one, which releaseReader parks or lets go.
func (s *Session) acquireReader() (*reader, error) {
	if r := s.parked.Swap(nil); r != nil {
		return r, nil
	}
	cur, err := s.stream.NewCursor()
	if err != nil {
		return nil, err
	}
	return &reader{cur: cur}, nil
}

// releaseReader parks r for the session's next stream, unless another
// stream parked one first; then r is dropped.
func (s *Session) releaseReader(r *reader) {
	s.parked.CompareAndSwap(nil, r)
}
