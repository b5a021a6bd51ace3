//go:build !amd64 || race

package dsp

// Off amd64, and in race builds on it, the Go loops in plan.go are the
// kernels.

func stageKernel(x []complex128, tw []twiddles) { stageGo(x, tw) }

func envelopeKernel(r []float64, z []complex128) { envelopeGo(r, z) }
