package fading

import (
	"math"

	"repro/internal/dsp"
)

// rician adds a deterministic line-of-sight component after coloring:
//
//	z'_j = sqrt(K·Ω_j/(K+1))·e^{iθ} + z_j·sqrt(1/(K+1))
//
// The scattered part keeps the engine's spatial correlation (scaled by
// 1/(K+1)) and the total mean power stays Ω_j, so the envelope is Rician with
// K-factor K and E[r²] = Ω_j.
type rician struct {
	scale float64      // sqrt(1/(K+1)), applied to the scattered part
	los   []complex128 // per-envelope LOS component
}

func newRician(k, phaseRad float64, powers []float64) *rician {
	t := &rician{
		scale: math.Sqrt(1 / (k + 1)),
		los:   make([]complex128, len(powers)),
	}
	dir := complex(math.Cos(phaseRad), math.Sin(phaseRad))
	amp := math.Sqrt(k / (k + 1))
	for j, p := range powers {
		t.los[j] = complex(amp*math.Sqrt(p), 0) * dir
	}
	return t
}

// fadinglint:allocfree
func (t *rician) Apply(env int, _ uint64, z []complex128, r []float64) {
	los := t.los[env]
	s := t.scale
	for i, v := range z {
		z[i] = los + complex(s*real(v), s*imag(v))
	}
	dsp.Envelope(r, z)
}
