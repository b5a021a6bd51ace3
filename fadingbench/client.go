package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The client speaks only fadingd's documented HTTP contract (docs/service.md):
// POST /v1/sessions, GET /v1/sessions/{id}/stream with binary FDB1 frames,
// DELETE /v1/sessions/{id} and GET /metrics. It never retries, so nothing
// masks a failure.

// Operation kinds of the failure accounting.
const (
	opCreate = iota
	opStreamID
	opStreamToken
	opDelete
	opCheck
	numOps
)

var opNames = [numOps]string{"create", "stream_id", "stream_token", "delete", "check"}

// ledger counts attempted and failed operations per kind.
type ledger struct {
	attempted, failed [numOps]atomic.Int64

	mu   sync.Mutex
	errs []string // the first few failures, for the report
}

// record counts one operation of kind op and reports whether it succeeded.
func (l *ledger) record(op int, err error) bool {
	l.attempted[op].Add(1)
	if err == nil {
		return true
	}
	l.failed[op].Add(1)
	l.mu.Lock()
	if len(l.errs) < 8 {
		l.errs = append(l.errs, opNames[op]+": "+err.Error())
	}
	l.mu.Unlock()
	return false
}

func (l *ledger) totals() (attempted, failed int64) {
	for op := 0; op < numOps; op++ {
		attempted += l.attempted[op].Load()
		failed += l.failed[op].Load()
	}
	return attempted, failed
}

// conn is one keep-alive connection to fadingd: a Transport of its own,
// limited to a single connection.
type conn struct {
	base  string
	tr    *http.Transport
	hc    *http.Client
	frame []byte // frame read buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// session is the part of a create response the benchmark uses.
type session struct {
	ID    string `json:"id"`
	Token string `json:"token"`
}

func (c *conn) create(spec []byte) (session, error) {
	resp, err := c.hc.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(spec))
	if err != nil {
		return session{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return session{}, fmt.Errorf("read create response: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return session{}, fmt.Errorf("create: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var s session
	if err := json.Unmarshal(body, &s); err != nil {
		return session{}, fmt.Errorf("decode create response: %w", err)
	}
	if s.ID == "" || s.Token == "" {
		return session{}, errors.New("create: response lacks id or token")
	}
	return s, nil
}

func (c *conn) delete(id string) error {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("read delete response: %w", err)
	}
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete: status %d", resp.StatusCode)
	}
	return nil
}

// streamReq is one stream GET: blocks [from, from+count) of a session whose
// frames hold n envelopes of m samples. A non-empty token is sent as
// ?token=, which lets a server that no longer has the session rebuild it.
type streamReq struct {
	id, token   string
	from, count uint64
	n, m        int
}

// stream reads the requested blocks as binary frames. It fails on a non-200
// status, a promised X-Fadingd-Blocks other than count, a malformed frame
// header, a body that does not end after the last frame, or an
// X-Fadingd-Blocks-Sent trailer short of the promise. keep, when non-nil,
// sees every complete frame (header and payload) and must copy what it
// retains. It returns the frames received and the time from sending the
// request to receiving the first complete frame.
func (c *conn) stream(r streamReq, tr *tracer, keep func(index uint64, frame []byte)) (int, time.Duration, error) {
	u := fmt.Sprintf("%s/v1/sessions/%s/stream?from=%d&count=%d&format=bin", c.base, url.PathEscape(r.id), r.from, r.count)
	if r.token != "" {
		u += "&token=" + url.QueryEscape(r.token)
	}
	root := tr.begin("http.request", -1, r.id)
	defer tr.end(root)
	start := time.Now()
	fb := tr.begin("http.first_byte", root, r.id)
	resp, err := c.hc.Get(u)
	tr.end(fb)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	want := strconv.FormatUint(r.count, 10)
	if got := resp.Header.Get("X-Fadingd-Blocks"); got != want {
		return 0, 0, fmt.Errorf("stream: X-Fadingd-Blocks %q, want %s", got, want)
	}
	size := 24 + r.n*r.m*8
	if cap(c.frame) < size {
		c.frame = make([]byte, size)
	}
	frame := c.frame[:size]
	var first time.Duration
	frames := 0
	for k := uint64(0); k < r.count; k++ {
		name := "http.frame"
		if k == 0 {
			name = "http.first_frame"
		}
		fs := tr.begin(name, root, r.id)
		_, err := io.ReadFull(resp.Body, frame)
		tr.end(fs)
		if err != nil {
			return frames, first, fmt.Errorf("stream: frame %d of %d: %w", k, r.count, err)
		}
		if err := checkHeader(frame, r.from+k, r.n, r.m); err != nil {
			return frames, first, err
		}
		if k == 0 {
			first = time.Since(start)
		}
		frames++
		if keep != nil {
			keep(r.from+k, frame)
		}
	}
	var extra [1]byte
	if n, err := io.ReadFull(resp.Body, extra[:]); n != 0 || !errors.Is(err, io.EOF) {
		return frames, first, fmt.Errorf("stream: body continues after %d frames (%v)", r.count, err)
	}
	if got := resp.Trailer.Get("X-Fadingd-Blocks-Sent"); got != want {
		return frames, first, fmt.Errorf("stream: X-Fadingd-Blocks-Sent %q, want %s", got, want)
	}
	return frames, first, nil
}

// checkHeader validates one binary frame header: magic, no Gaussian
// payload, the expected block index and geometry.
func checkHeader(frame []byte, index uint64, n, m int) error {
	switch {
	case string(frame[:4]) != "FDB1":
		return fmt.Errorf("stream: frame %d: bad magic %q", index, frame[:4])
	case frame[4] != 0:
		return fmt.Errorf("stream: frame %d: flags %#x, want 0", index, frame[4])
	case binary.LittleEndian.Uint64(frame[8:16]) != index:
		return fmt.Errorf("stream: frame index %d, want %d", binary.LittleEndian.Uint64(frame[8:16]), index)
	case int(binary.LittleEndian.Uint32(frame[16:20])) != n || int(binary.LittleEndian.Uint32(frame[20:24])) != m:
		return fmt.Errorf("stream: frame %d: geometry %dx%d, want %dx%d", index,
			binary.LittleEndian.Uint32(frame[16:20]), binary.LittleEndian.Uint32(frame[20:24]), n, m)
	}
	return nil
}

// scrape reads the unlabeled samples of GET /metrics.
func (c *conn) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}
