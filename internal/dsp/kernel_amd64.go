//go:build !race

package dsp

// The radix-4 stages after the first pass and the envelope loop in SSE2
// assembly (kernel_amd64.s). Each repeats its amd64 Go loop in plan.go bit
// for bit: stageKernel is stageGo and envelopeKernel is envelopeGo, with
// the same preconditions on their arguments. Race builds run the Go loops
// instead (kernel_other.go), because the race detector does not see the
// assembly's memory accesses.

//go:noescape
func stageKernel(x []complex128, tw []twiddles, inverse bool)

//go:noescape
func envelopeKernel(r []float64, z []complex128)

// stage4Kernel is stageKernel, which at q = 4 gives stage4Go's bits.
func stage4Kernel(x []complex128, tw []twiddles, inverse bool) { stageKernel(x, tw, inverse) }
