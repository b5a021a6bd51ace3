package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// metrics holds the service counters exposed at /metrics. Everything is a
// monotonic counter or an instantaneous gauge read at scrape time, so the
// endpoint needs no locking against the serving paths.
type metrics struct {
	start time.Time

	sessionsCreated atomic.Int64
	sessionsDeleted atomic.Int64
	sessionsEvicted atomic.Int64
	sessionsAdopted atomic.Int64
	specsRejected   atomic.Int64

	tokensIssued  atomic.Int64
	tokenRebuilds atomic.Int64
	tokenRejected atomic.Int64

	specCacheHits   atomic.Int64
	specCacheMisses atomic.Int64

	streamsStarted atomic.Int64
	activeStreams  atomic.Int64
	blocksServed   atomic.Int64
	samplesServed  atomic.Int64
	bytesWritten   atomic.Int64
}

// write renders the Prometheus text exposition format. sessions and
// cacheSize are gauges sampled by the caller (session table size, cached
// setup artifacts).
func (m *metrics) write(w io.Writer, sessions, cacheSize int, now time.Time) {
	uptime := now.Sub(m.start).Seconds()
	blocks := m.blocksServed.Load()
	var rate float64
	if uptime > 0 {
		rate = float64(blocks) / uptime
	}
	fmt.Fprintf(w, "# HELP fadingd_uptime_seconds Time since the server started.\n")
	fmt.Fprintf(w, "# TYPE fadingd_uptime_seconds gauge\nfadingd_uptime_seconds %.3f\n", uptime)
	fmt.Fprintf(w, "# HELP fadingd_sessions_active Live sessions in the table.\n")
	fmt.Fprintf(w, "# TYPE fadingd_sessions_active gauge\nfadingd_sessions_active %d\n", sessions)
	fmt.Fprintf(w, "# HELP fadingd_sessions_created_total Sessions accepted since start.\n")
	fmt.Fprintf(w, "# TYPE fadingd_sessions_created_total counter\nfadingd_sessions_created_total %d\n", m.sessionsCreated.Load())
	fmt.Fprintf(w, "# HELP fadingd_sessions_deleted_total Sessions removed by DELETE.\n")
	fmt.Fprintf(w, "# TYPE fadingd_sessions_deleted_total counter\nfadingd_sessions_deleted_total %d\n", m.sessionsDeleted.Load())
	fmt.Fprintf(w, "# HELP fadingd_sessions_evicted_total Sessions removed by TTL eviction.\n")
	fmt.Fprintf(w, "# TYPE fadingd_sessions_evicted_total counter\nfadingd_sessions_evicted_total %d\n", m.sessionsEvicted.Load())
	fmt.Fprintf(w, "# HELP fadingd_sessions_adopted_total Sessions rebuilt from tokens and cached in the table.\n")
	fmt.Fprintf(w, "# TYPE fadingd_sessions_adopted_total counter\nfadingd_sessions_adopted_total %d\n", m.sessionsAdopted.Load())
	fmt.Fprintf(w, "# HELP fadingd_specs_rejected_total Session specs rejected as invalid.\n")
	fmt.Fprintf(w, "# TYPE fadingd_specs_rejected_total counter\nfadingd_specs_rejected_total %d\n", m.specsRejected.Load())
	fmt.Fprintf(w, "# HELP fadingd_tokens_issued_total Session tokens minted in create/info responses.\n")
	fmt.Fprintf(w, "# TYPE fadingd_tokens_issued_total counter\nfadingd_tokens_issued_total %d\n", m.tokensIssued.Load())
	fmt.Fprintf(w, "# HELP fadingd_token_rebuilds_total Streams served by rebuilding a session from its token after a table miss.\n")
	fmt.Fprintf(w, "# TYPE fadingd_token_rebuilds_total counter\nfadingd_token_rebuilds_total %d\n", m.tokenRebuilds.Load())
	fmt.Fprintf(w, "# HELP fadingd_token_rejected_total Token resumes refused (expired, bad signature, unknown key, malformed).\n")
	fmt.Fprintf(w, "# TYPE fadingd_token_rejected_total counter\nfadingd_token_rejected_total %d\n", m.tokenRejected.Load())
	fmt.Fprintf(w, "# HELP fadingd_streams_started_total Stream requests accepted.\n")
	fmt.Fprintf(w, "# TYPE fadingd_streams_started_total counter\nfadingd_streams_started_total %d\n", m.streamsStarted.Load())
	fmt.Fprintf(w, "# HELP fadingd_streams_active Streams currently being served.\n")
	fmt.Fprintf(w, "# TYPE fadingd_streams_active gauge\nfadingd_streams_active %d\n", m.activeStreams.Load())
	fmt.Fprintf(w, "# HELP fadingd_blocks_served_total Blocks written to clients.\n")
	fmt.Fprintf(w, "# TYPE fadingd_blocks_served_total counter\nfadingd_blocks_served_total %d\n", blocks)
	fmt.Fprintf(w, "# HELP fadingd_blocks_per_second Mean block rate since start.\n")
	fmt.Fprintf(w, "# TYPE fadingd_blocks_per_second gauge\nfadingd_blocks_per_second %.3f\n", rate)
	fmt.Fprintf(w, "# HELP fadingd_samples_served_total Envelope samples written to clients.\n")
	fmt.Fprintf(w, "# TYPE fadingd_samples_served_total counter\nfadingd_samples_served_total %d\n", m.samplesServed.Load())
	fmt.Fprintf(w, "# HELP fadingd_bytes_written_total Payload bytes written to clients.\n")
	fmt.Fprintf(w, "# TYPE fadingd_bytes_written_total counter\nfadingd_bytes_written_total %d\n", m.bytesWritten.Load())
	fmt.Fprintf(w, "# HELP fadingd_spec_cache_hits_total Session creates served from the setup cache.\n")
	fmt.Fprintf(w, "# TYPE fadingd_spec_cache_hits_total counter\nfadingd_spec_cache_hits_total %d\n", m.specCacheHits.Load())
	fmt.Fprintf(w, "# HELP fadingd_spec_cache_misses_total Session creates that performed the full setup.\n")
	fmt.Fprintf(w, "# TYPE fadingd_spec_cache_misses_total counter\nfadingd_spec_cache_misses_total %d\n", m.specCacheMisses.Load())
	fmt.Fprintf(w, "# HELP fadingd_spec_cache_size Setup artifacts currently cached.\n")
	fmt.Fprintf(w, "# TYPE fadingd_spec_cache_size gauge\nfadingd_spec_cache_size %d\n", cacheSize)
}
