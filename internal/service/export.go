package service

import (
	"fmt"
	"io"
	"net"
	"net/http"

	rayleigh "repro"
)

// NewStreamFromSpec validates a session spec against the given limits and
// builds the deterministic Stream the service would serve for it — the same
// construction path session creation uses, without the HTTP layer or the
// setup cache. It exists for replay harnesses (internal/corpus) that need an
// in-process reference for byte-identity comparisons against a live fadingd:
// hashing this Stream's blocks through a FrameEncoder must reproduce the
// served binary stream exactly.
func NewStreamFromSpec(spec *SessionSpec, limits Limits) (*rayleigh.Stream, error) {
	if err := spec.Validate(limits); err != nil {
		return nil, err
	}
	return buildStream(spec)
}

// ServeLoopback starts an in-process fadingd for cfg on an ephemeral
// 127.0.0.1 port. It returns the server's base URL ("http://127.0.0.1:port")
// and a stop function that closes the HTTP server and then the Server. The
// harnesses that drive a local fadingd (corpus replay, the SLO lab) start it
// this way.
func ServeLoopback(cfg Config) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("service: listen: %w", err)
	}
	svc := New(cfg)
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		svc.Close()
	}, nil
}

// FrameEncoder serializes blocks into the service's binary wire framing
// ("FDB1" magic, little-endian header, raw float64 payload — see
// docs/service.md). It shares the implementation of the server's stream
// encoder, so client-side replay hashes are computed from the same bytes the
// server writes. The zero value is ready to use; the encoder owns reusable
// scratch and is not safe for concurrent use.
type FrameEncoder struct {
	enc binaryEncoder
}

// Encode writes block index as one binary frame to w, with the complex
// Gaussian payload appended when gaussian is set. It returns the frame size
// in bytes.
func (e *FrameEncoder) Encode(w io.Writer, index uint64, b *rayleigh.Block, gaussian bool) (int, error) {
	n, err := e.enc.encode(w, index, b, gaussian)
	if err != nil {
		return n, fmt.Errorf("service: encode frame %d: %w", index, err)
	}
	return n, nil
}
