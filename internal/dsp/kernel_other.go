//go:build !amd64 || race

package dsp

// Off amd64, and in race builds on it, the Go loops in plan.go are the
// kernels.

func stageKernel(x []complex128, tw []twiddles, inverse bool) { stageGo(x, tw, inverse) }

func stage4Kernel(x []complex128, tw []twiddles, inverse bool) { stage4Go(x, tw, inverse) }

func envelopeKernel(r []float64, z []complex128) { envelopeGo(r, z) }
