package rayleigh

import (
	"fmt"

	"repro/internal/core"
)

// Stream is the real-time mode: blocks of time-correlated envelopes whose
// cross-envelope covariance follows the desired matrix while each envelope's
// autocorrelation follows the Jakes model J0(2π·fm·d) (Section 5, Fig. 3 of
// the paper). Block i is a pure function of the configuration (seed
// included) and i, so any position can be generated at any time, in any
// order, by any number of goroutines: a Cursor reads the sequence in order
// (Next) or at any position (BlockAt), and every cursor produces the same
// block i.
//
// A Stream holds no mutable generation state — all sampling state lives in
// Cursors — so one Stream may be shared freely across goroutines as long as
// each Cursor stays confined to a single goroutine at a time. A parallel
// fill gives each goroutine its own Cursor and has it call BlockAt for its
// share of the positions.
type Stream struct {
	inner *core.RealTimeGenerator
}

// NewStream builds a Stream. Its parallelism is however many Cursors its
// callers drive concurrently.
func NewStream(cfg RealTimeConfig) (*Stream, error) {
	coreCfg, err := realtimeCoreConfig(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewRealTimeGenerator(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return &Stream{inner: inner}, nil
}

// N returns the number of envelopes per block.
func (s *Stream) N() int { return s.inner.N() }

// BlockLength returns the number of time samples per block.
func (s *Stream) BlockLength() int { return s.inner.BlockLength() }

// SampleVariance returns the σ²_g used in the whitening step: the Doppler
// filter output variance of Eq. (19), or 1 under the Sorooshyari–Daut
// backend's unit-variance assumption.
func (s *Stream) SampleVariance() float64 { return s.inner.SampleVariance() }

// TheoreticalAutocorrelation returns the designed per-envelope normalized
// autocorrelation J0(2π·fm·lag). Under FadingNonstationaryDoppler it reports
// the first trajectory segment; use TheoreticalAutocorrelationAt for later
// blocks.
func (s *Stream) TheoreticalAutocorrelation(lag int) float64 {
	return s.inner.TheoreticalAutocorrelation(lag)
}

// TheoreticalAutocorrelationAt returns the designed normalized
// autocorrelation J0(2π·fm·lag) of the trajectory segment covering the given
// block. Without FadingNonstationaryDoppler every block reports the single
// configured Doppler.
func (s *Stream) TheoreticalAutocorrelationAt(block uint64, lag int) float64 {
	return s.inner.TheoreticalAutocorrelationAt(block, lag)
}

// Diagnostics reports the covariance conditioning applied at construction.
// As for Generator.Diagnostics, only the generalized method forces positive
// semi-definiteness; a conventional method reports the zero value.
func (s *Stream) Diagnostics() Diagnostics {
	return diagnosticsFromForced(s.inner.Diagnostics())
}

// NewCursor returns a new Cursor positioned at block 0. Cursors are
// independent: each owns the generation workspace its blocks are computed
// in, so distinct cursors never contend, and two cursors at the same
// position produce identical values. The error is always nil; it stays in
// the signature so existing callers keep compiling.
func (s *Stream) NewCursor() (*Cursor, error) {
	return &Cursor{stream: s, scratch: s.inner.NewBlockScratch()}, nil
}

// Cursor is a position in a Stream plus the private workspace that makes
// generating there allocation-free. A Cursor is not safe for concurrent use;
// confine each to one goroutine at a time (the Stream underneath may be
// shared).
type Cursor struct {
	stream  *Stream
	scratch *core.BlockScratch
	pos     uint64
}

// Position returns the index of the block the next Next call will produce.
func (c *Cursor) Position() uint64 { return c.pos }

// Seek moves the cursor so the next Next call produces block i. Seeking is
// O(1) in any direction — resuming a stream at block k is bit-identical to
// having consumed blocks 0..k-1 first.
func (c *Cursor) Seek(i uint64) { c.pos = i }

// Next generates the block at the cursor position into b and advances the
// position by one. It reuses b's storage when b already holds N rows of
// BlockLength samples; an empty or wrong-shaped b is [re]allocated in place.
// With a pre-shaped b (one an earlier call filled, say) the call performs no
// heap allocation, so a live channel simulator can read block after block
// into one Block.
//
// fadinglint:allocfree
func (c *Cursor) Next(b *Block) error {
	if err := c.BlockAt(c.pos, b); err != nil {
		return err
	}
	c.pos++
	return nil
}

// BlockAt generates block i into b without moving the cursor position. It
// reuses b's storage as Next does.
//
// fadinglint:allocfree
func (c *Cursor) BlockAt(i uint64, b *Block) error {
	if b == nil {
		return fmt.Errorf("rayleigh: nil destination block: %w", ErrInvalidConfig)
	}
	if err := c.stream.inner.GenerateBlockAt(i, b, c.scratch); err != nil {
		return fmt.Errorf("rayleigh: %w", err)
	}
	return nil
}
