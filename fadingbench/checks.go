package main

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"

	rayleigh "repro"
	"repro/internal/service"
)

// Statistics tolerances. They are loose enough for a transform with a
// bounded approximation error, and tight enough that a wrong coloring,
// whitening or fading transform fails.
const (
	// covTol bounds max |Ĉ_jk − K_jk| of the Gaussian sample covariance.
	covTol = 0.12
	// omegaTol bounds |Ω̂ − Ω|/Ω of the Nakagami mean power.
	omegaTol = 0.08
	// mTol bounds |m̂ − m| of the Nakagami shape.
	mTol = 0.35
)

// checkFrames regenerates every kept frame through service.NewStreamFromSpec
// and service.FrameEncoder and compares it byte for byte with what the
// server sent.
func (b *bench) checkFrames() {
	if len(b.kept) == 0 {
		b.ops.record(opCheck, fmt.Errorf("no served frame was kept for the byte-for-byte check"))
		return
	}
	streams := make(map[string]*rayleigh.Stream)
	var buf bytes.Buffer
	var enc service.FrameEncoder
	block := &rayleigh.Block{}
	for _, k := range b.kept {
		st, ok := streams[k.key]
		if !ok {
			var err error
			if st, err = service.NewStreamFromSpec(&k.spec, service.Limits{}); err != nil {
				b.ops.record(opCheck, fmt.Errorf("reference stream: %w", err))
				continue
			}
			streams[k.key] = st
		}
		cur, err := st.NewCursor()
		if err == nil {
			err = cur.BlockAt(k.index, block)
		}
		if err == nil {
			buf.Reset()
			_, err = enc.Encode(&buf, k.index, block, false)
		}
		if err == nil && !bytes.Equal(buf.Bytes(), k.frame) {
			err = fmt.Errorf("served frame %d of the session with seed %d differs from the reference encoding", k.index, k.spec.Seed)
		}
		b.ops.record(opCheck, err)
	}
}

// statReport is the outcome of the statistics check, for the report.
type statReport struct {
	covErr       float64 // max |Ĉ_jk − K_jk|, Rayleigh workloads
	omegaErr     float64 // max |Ω̂_j − Ω_j|/Ω_j, Nakagami
	mHat, mErr   float64 // m̂ farthest from m, and its distance
	blocks, rows int
}

// checkStatistics checks a fixed block sample of the run's first spec. For
// the Rayleigh workloads it compares the Gaussian sample covariance with the
// target covariance; for Nakagami-m it checks the moment estimates
// Ω̂ = E[r²] and m̂ = Ω̂²/Var(r²) against the spec.
func (b *bench) checkStatistics() statReport {
	spec := b.in.specs(b.w, 1)[0]
	rep := statReport{blocks: b.w.statBlocks, rows: b.w.n}
	target, err := spec.Model.Build()
	var st *rayleigh.Stream
	if err == nil {
		st, err = service.NewStreamFromSpec(&spec, service.Limits{})
	}
	var cur *rayleigh.Cursor
	if err == nil {
		cur, err = st.NewCursor()
	}
	if err != nil {
		b.ops.record(opCheck, fmt.Errorf("statistics: %w", err))
		return rep
	}
	n := b.w.n
	cov := make([]complex128, n*n)
	r2 := make([]float64, n)
	r4 := make([]float64, n)
	block := &rayleigh.Block{}
	count := 0
	for blk := 0; blk < b.w.statBlocks; blk++ {
		if err := cur.BlockAt(uint64(blk), block); err != nil {
			b.ops.record(opCheck, fmt.Errorf("statistics: block %d: %w", blk, err))
			return rep
		}
		for j := 0; j < n; j++ {
			gj := block.Gaussian[j]
			for k := 0; k < n; k++ {
				gk := block.Gaussian[k]
				var s complex128
				for l, v := range gj {
					s += v * cmplx.Conj(gk[l])
				}
				cov[j*n+k] += s
			}
			for _, r := range block.Envelopes[j] {
				p := r * r
				r2[j] += p
				r4[j] += p * p
			}
		}
		count += blockLen
	}
	if spec.Model.Fading == "" {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				rep.covErr = math.Max(rep.covErr, cmplx.Abs(cov[j*n+k]/complex(float64(count), 0)-target.At(j, k)))
			}
		}
		if rep.covErr > covTol {
			b.ops.record(opCheck, fmt.Errorf("statistics: sample covariance off target by %.4f (tolerance %g)", rep.covErr, covTol))
			return rep
		}
		b.ops.record(opCheck, nil)
		return rep
	}
	m := spec.Model.Params.M
	for j := 0; j < n; j++ {
		omega := real(target.At(j, j))
		oHat := r2[j] / float64(count)
		mHat := oHat * oHat / (r4[j]/float64(count) - oHat*oHat)
		rep.omegaErr = math.Max(rep.omegaErr, math.Abs(oHat-omega)/omega)
		if d := math.Abs(mHat - m); d >= rep.mErr {
			rep.mHat, rep.mErr = mHat, d
		}
	}
	if rep.omegaErr > omegaTol || rep.mErr > mTol {
		b.ops.record(opCheck, fmt.Errorf("statistics: Nakagami moments off (Ω̂ relative error %.4f, tolerance %g; m̂ = %.4f for m = %g, tolerance %g)",
			rep.omegaErr, omegaTol, rep.mHat, m, mTol))
		return rep
	}
	b.ops.record(opCheck, nil)
	return rep
}
