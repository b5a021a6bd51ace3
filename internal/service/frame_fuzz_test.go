package service

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	rayleigh "repro"
	"repro/internal/chanspec"
)

// realFrames encodes blocks of a small served stream (N = 3, M = 64), with
// and without the Gaussian payload, as the server would write them.
func realFrames(tb testing.TB) [][]byte {
	tb.Helper()
	spec := &SessionSpec{
		Model:      chanspec.Model{Type: chanspec.ModelEq22},
		Seed:       9,
		Blocks:     4,
		IDFTPoints: 64,
	}
	stream, err := NewStreamFromSpec(spec, Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	cur, err := stream.NewCursor()
	if err != nil {
		tb.Fatal(err)
	}
	var enc FrameEncoder
	var frames [][]byte
	for i := uint64(0); i < 2; i++ {
		var b rayleigh.Block
		if err := cur.BlockAt(i, &b); err != nil {
			tb.Fatal(err)
		}
		for _, gaussian := range []bool{false, true} {
			var buf bytes.Buffer
			if _, err := enc.Encode(&buf, i, &b, gaussian); err != nil {
				tb.Fatal(err)
			}
			frames = append(frames, buf.Bytes())
		}
	}
	return frames
}

// FuzzDecodeBinaryFrame: DecodeBinaryFrame never panics, and every frame it
// accepts re-encodes through FrameEncoder to exactly the bytes it consumed,
// so the decoder accepts the encoder's language and nothing else.
func FuzzDecodeBinaryFrame(f *testing.F) {
	frames := realFrames(f)
	for _, fr := range frames {
		f.Add(fr)
		f.Add(fr[:len(fr)-5])                 // truncated payload
		f.Add(append(fr[:24:24], 0xff, 0xff)) // header plus a stray tail
	}
	f.Add(append(append([]byte(nil), frames[0]...), frames[1]...)) // two frames back to back
	f.Add([]byte("FDB1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		index, envelopes, gaussian, err := DecodeBinaryFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		var enc FrameEncoder
		block := &rayleigh.Block{Envelopes: envelopes, Gaussian: gaussian}
		if _, err := enc.Encode(&out, index, block, gaussian != nil); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("accepted frame re-encodes differently:\nin:  %x\nout: %x", consumed, out.Bytes())
		}
	})
}

// TestDecodeBinaryFrameRejectsForeignHeaders pins the header fields the
// encoder always writes as zero or consistent: a frame that sets them
// otherwise is malformed, not silently re-interpreted.
func TestDecodeBinaryFrameRejectsForeignHeaders(t *testing.T) {
	frame := realFrames(t)[0]
	for name, mutate := range map[string]func([]byte){
		"unknown flag bit": func(b []byte) { b[4] |= 0x02 },
		"reserved byte":    func(b []byte) { b[6] = 1 },
		"m without rows":   func(b []byte) { b[16], b[17], b[18], b[19] = 0, 0, 0, 0 },
		// Rows without samples: n = 2^32−1 would otherwise allocate ~96 GiB of
		// empty row headers.
		"rows without m": func(b []byte) {
			b[16], b[17], b[18], b[19], b[20], b[21], b[22], b[23] = 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0
		},
	} {
		bad := append([]byte(nil), frame...)
		mutate(bad)
		if _, _, _, err := DecodeBinaryFrame(bytes.NewReader(bad)); !errors.Is(err, errBadHeader) {
			t.Errorf("%s: err = %v, want %v", name, err, errBadHeader)
		}
	}
}

// TestDecodeBinaryFrameRejectsWrappingSize: n = 2^31, m = 2^30 makes
// n·m·24 wrap to zero in uint64, which once passed the size cap and sent the
// decoder on to allocate 2^31 rows of 2^30 samples.
func TestDecodeBinaryFrameRejectsWrappingSize(t *testing.T) {
	header := append([]byte(nil), realFrames(t)[0][:24]...)
	header[16], header[17], header[18], header[19] = 0, 0, 0, 0x80 // n = 2^31
	header[20], header[21], header[22], header[23] = 0, 0, 0, 0x40 // m = 2^30
	if _, _, _, err := DecodeBinaryFrame(bytes.NewReader(header)); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("err = %v, want %v", err, errFrameTooLarge)
	}
}

// TestDecodeBinaryFrameTruncatedPromise: a header declaring a 320 MiB
// envelope payload (within the size cap) followed by a few bytes fails with
// io.ErrUnexpectedEOF without allocating the promised size up front.
func TestDecodeBinaryFrameTruncatedPromise(t *testing.T) {
	header := append([]byte(nil), realFrames(t)[0][:24]...)
	header[16], header[17], header[18], header[19] = 0, 0, 0x10, 0 // n = 2^20
	header[20], header[21], header[22], header[23] = 40, 0, 0, 0   // m = 40
	data := append(header, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, _, err := DecodeBinaryFrame(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("truncated frame allocated %.1f MiB, want ≤ 4 MiB", float64(got)/(1<<20))
	}
}
