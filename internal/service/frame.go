package service

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"

	rayleigh "repro"
	"repro/internal/chanspec"
)

// Stream formats.
const (
	// FormatNDJSON is one JSON object per block, newline-terminated.
	FormatNDJSON = "ndjson"
	// FormatBinary is the compact binary framing documented in
	// docs/service.md (magic "FDB1", little-endian header, raw float64
	// payload). Roughly 2.4x denser than NDJSON and allocation-free to
	// encode.
	FormatBinary = "bin"
)

// binMagic opens every binary frame.
var binMagic = [4]byte{'F', 'D', 'B', '1'}

// binFlagGaussian marks frames carrying the complex Gaussian payload after
// the envelopes.
const binFlagGaussian = 0x01

// frameEncoder serializes one block; implementations own reusable scratch so
// steady-state encoding performs no per-block allocation (binary) or only
// encoding/json's internal buffering (NDJSON).
type frameEncoder interface {
	encode(w io.Writer, index uint64, b *rayleigh.Block, gaussian bool) (int, error)
}

// newFrameEncoder returns the encoder for a format already validated by the
// handler.
func newFrameEncoder(format string) frameEncoder {
	if format == FormatBinary {
		return &binaryEncoder{}
	}
	return &ndjsonEncoder{}
}

// blockRecord is the NDJSON shape of one block.
type blockRecord struct {
	Block     uint64               `json:"block"`
	Envelopes [][]float64          `json:"envelopes"`
	Gaussian  [][]chanspec.Complex `json:"gaussian,omitempty"`
}

// ndjsonEncoder writes blockRecords. The gaussian scratch and the
// json.Encoder (bound to the stream's writer on first use) persist across
// blocks of one stream.
type ndjsonEncoder struct {
	gaussian [][]chanspec.Complex
	cw       *countingWriter
	enc      *json.Encoder
}

func (e *ndjsonEncoder) encode(w io.Writer, index uint64, b *rayleigh.Block, gaussian bool) (int, error) {
	rec := blockRecord{Block: index, Envelopes: b.Envelopes}
	if gaussian {
		if len(e.gaussian) != len(b.Gaussian) {
			e.gaussian = make([][]chanspec.Complex, len(b.Gaussian))
		}
		for j, row := range b.Gaussian {
			if len(e.gaussian[j]) != len(row) {
				e.gaussian[j] = make([]chanspec.Complex, len(row))
			}
			for l, v := range row {
				e.gaussian[j][l] = chanspec.Complex(v)
			}
		}
		rec.Gaussian = e.gaussian
	}
	if e.cw == nil || e.cw.w != w {
		e.cw = &countingWriter{w: w}
		e.enc = json.NewEncoder(e.cw)
		e.enc.SetEscapeHTML(false)
	}
	e.cw.n = 0
	if err := e.enc.Encode(&rec); err != nil {
		return e.cw.n, err
	}
	return e.cw.n, nil
}

// binaryEncoder writes the compact frame into a reusable buffer, then to w.
type binaryEncoder struct {
	buf []byte
}

func (e *binaryEncoder) encode(w io.Writer, index uint64, b *rayleigh.Block, gaussian bool) (int, error) {
	n := len(b.Envelopes)
	m := 0
	if n > 0 {
		m = len(b.Envelopes[0])
	}
	need := 24 + n*m*8
	if gaussian {
		need += n * m * 16
	}
	if cap(e.buf) < need {
		e.buf = make([]byte, 0, need)
	}
	buf := e.buf[:0]
	buf = append(buf, binMagic[:]...)
	var flags byte
	if gaussian {
		flags |= binFlagGaussian
	}
	buf = append(buf, flags, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, index)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	for _, row := range b.Envelopes {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	if gaussian {
		for _, row := range b.Gaussian {
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(v)))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(v)))
			}
		}
	}
	e.buf = buf
	return w.Write(buf)
}

// maxFramePayload caps the payload size a frame header may declare (1 GiB),
// so a corrupt or adversarial header cannot demand an absurd or
// integer-overflowing buffer.
const maxFramePayload = 1 << 30

// payloadStep is the initial capacity of DecodeBinaryFrame's payload buffer,
// which then doubles only as bytes arrive.
const payloadStep = 64 << 10

// DecodeBinaryFrame parses one binary frame from r (client-side helper used
// by tests and replay tools). It returns the block index and the
// envelope/gaussian payloads, gaussian nil when the frame carries none, and
// io.EOF cleanly at end of stream. It accepts exactly the frames the encoder
// writes: unknown flag bits, non-zero reserved bytes and a zero n or m with
// the other non-zero are rejected. Payload buffers grow with the bytes that
// arrive and rows are allocated only once their payload has been read, so a
// header promising more than the stream holds fails with
// io.ErrUnexpectedEOF after allocating at most about twice what was read
// (or payloadStep).
func DecodeBinaryFrame(r io.Reader) (index uint64, envelopes [][]float64, gaussian [][]complex128, err error) {
	var header [24]byte
	if _, err = io.ReadFull(r, header[:]); err != nil {
		return 0, nil, nil, err
	}
	if [4]byte(header[:4]) != binMagic {
		return 0, nil, nil, errBadFrame
	}
	flags := header[4]
	index = binary.LittleEndian.Uint64(header[8:16])
	n := int(binary.LittleEndian.Uint32(header[16:20]))
	m := int(binary.LittleEndian.Uint32(header[20:24]))
	if flags&^binFlagGaussian != 0 || header[5]|header[6]|header[7] != 0 || (n == 0) != (m == 0) {
		return 0, nil, nil, errBadHeader
	}
	// n and m are below 2^32, so their product cannot overflow uint64 (the
	// product times 24 can: n = 2^31, m = 2^30 wraps it to zero).
	if cells := uint64(n) * uint64(m); cells > maxFramePayload/24 {
		return 0, nil, nil, errFrameTooLarge
	}
	payload, err := readPayload(r, n*m*8)
	if err != nil {
		return 0, nil, nil, err
	}
	envelopes = make([][]float64, n)
	for j := 0; j < n; j++ {
		envelopes[j] = make([]float64, m)
		for l := 0; l < m; l++ {
			bits := binary.LittleEndian.Uint64(payload[(j*m+l)*8:])
			envelopes[j][l] = math.Float64frombits(bits)
		}
	}
	if flags&binFlagGaussian != 0 {
		gpayload, err := readPayload(r, n*m*16)
		if err != nil {
			return 0, nil, nil, err
		}
		gaussian = make([][]complex128, n)
		for j := 0; j < n; j++ {
			gaussian[j] = make([]complex128, m)
			for l := 0; l < m; l++ {
				re := math.Float64frombits(binary.LittleEndian.Uint64(gpayload[(j*m+l)*16:]))
				im := math.Float64frombits(binary.LittleEndian.Uint64(gpayload[(j*m+l)*16+8:]))
				gaussian[j][l] = complex(re, im)
			}
		}
	}
	return index, envelopes, gaussian, nil
}

// readPayload reads exactly size bytes from r into a buffer that starts at
// most payloadStep long and doubles only as bytes arrive. A stream that ends
// early yields io.ErrUnexpectedEOF.
func readPayload(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, 0, min(size, payloadStep))
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(size, 2*cap(buf))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// errBadFrame reports a corrupt binary frame.
var errBadFrame = errInvalid("service: bad binary frame magic")

// errBadHeader reports a frame header the encoder never writes.
var errBadHeader = errInvalid("service: bad binary frame header")

// errFrameTooLarge reports a frame header demanding more than
// maxFramePayload bytes.
var errFrameTooLarge = errInvalid("service: binary frame exceeds size limit")

type errInvalid string

func (e errInvalid) Error() string { return string(e) }

// countingWriter tracks payload bytes for the metrics counters.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
