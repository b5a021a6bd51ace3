// Command fadingd is the streaming channel-simulation server: a long-running
// HTTP service that turns the library's deterministic fading engine into a
// shared facility. Clients POST a channel spec (the scenario files' model
// vocabulary), receive a session ID, and stream blocks of correlated
// Rayleigh envelopes as NDJSON or compact binary frames, resuming at any
// block with ?from=k. The wire protocol, spec schema and capacity tuning are
// documented in docs/service.md; cmd/slorun drives load against it.
//
// Usage:
//
//	fadingd [-addr :8080] [-session-ttl 5m] [-max-sessions 256] [-cache-specs 256]
//	        [-max-envelopes 64] [-max-blocks 1048576] [-max-idft 65536]
//	        [-read-header-timeout 10s] [-read-timeout 1m] [-write-timeout 0]
//	        [-idle-timeout 2m] [-create-timeout 30s]
//	        [-token-key id:hexsecret[,id2:hexsecret...]] [-token-key-file path]
//	        [-token-ttl 1h]
//
// The timeout flags bound how long a client may hold a connection without
// progress (slowloris defense) and how long one session create may spend in
// spec setup; see the "Overload & retry semantics" section of docs/service.md
// for the 429/503/Retry-After contract they feed.
//
// With -token-key (or -token-key-file), session creates return a signed
// self-describing token and any replica sharing a verifying key serves any
// block of the session — the stateless scale-out contract of docs/cluster.md.
// deploy/ holds a ready-to-run docker-compose recipe: N replicas sharing a
// signing key behind a round-robin proxy.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/token"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		sessionTTL   = flag.Duration("session-ttl", 5*time.Minute, "evict sessions idle longer than this")
		maxSessions  = flag.Int("max-sessions", 256, "session table capacity")
		cacheSpecs   = flag.Int("cache-specs", 0, "max cached per-spec setup artifacts shared across sessions (0 = 256, negative disables)")
		maxEnvelopes = flag.Int("max-envelopes", 0, "largest model N a spec may request (0 = 64)")
		maxBlocks    = flag.Int("max-blocks", 0, "longest stream a spec may request (0 = 1<<20)")
		maxIDFT      = flag.Int("max-idft", 0, "largest block length a spec may request (0 = 1<<16)")

		// HTTP server timeouts. The write timeout defaults to 0 (disabled)
		// on purpose: streams are long-lived by design and a write deadline
		// covers the whole response, so any finite default would cut slow but
		// legitimate consumers — set it only on deployments that cap stream
		// length. The others default on: header and body reads are small, and
		// idle keep-alive connections are cheap to re-establish.
		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "max time to read request headers (slowloris defense)")
		readTimeout       = flag.Duration("read-timeout", time.Minute, "max time to read a full request including body")
		writeTimeout      = flag.Duration("write-timeout", 0, "max time to write a full response (0 = unlimited; finite values cut long streams)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time between requests")
		createTimeout     = flag.Duration("create-timeout", 30*time.Second, "max spec setup time per session create before 503 + Retry-After (0 = unlimited)")

		// Session-token signing. One shared keyring turns a fleet of fadingd
		// processes into interchangeable replicas (docs/cluster.md).
		tokenKey     = flag.String("token-key", "", "session-token keyring, id:hexsecret[,id2:hexsecret...]; first key signs, all verify (empty disables tokens)")
		tokenKeyFile = flag.String("token-key-file", "", "file holding the -token-key value (keeps secrets out of argv)")
		tokenTTL     = flag.Duration("token-ttl", time.Hour, "session-token validity from mint time (negative = no expiry)")
	)
	flag.Parse()

	keyring, err := loadKeyring(*tokenKey, *tokenKeyFile)
	if err != nil {
		log.Fatalf("fadingd: %v", err)
	}

	svc := service.New(service.Config{
		SessionTTL:    *sessionTTL,
		MaxSessions:   *maxSessions,
		CacheSpecs:    *cacheSpecs,
		CreateTimeout: *createTimeout,
		Keyring:       keyring,
		TokenTTL:      *tokenTTL,
		Limits: service.Limits{
			MaxEnvelopes:  *maxEnvelopes,
			MaxBlocks:     *maxBlocks,
			MaxIDFTPoints: *maxIDFT,
		},
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("fadingd listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("fadingd: %s, shutting down", sig)
	case err := <-errc:
		log.Fatalf("fadingd: serve: %v", err)
	}

	// Graceful shutdown: stop the streams at their next block boundary, let
	// the HTTP server drain, then tear down the sessions.
	svc.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "fadingd: shutdown: %v\n", err)
	}
	svc.Close()
	log.Printf("fadingd: bye")
}

// loadKeyring resolves the -token-key/-token-key-file pair into a keyring;
// both empty means tokens stay disabled. A named key file that holds no key
// is an error, not a request to disable tokens: a replica whose secret mount
// came up empty would otherwise serve token-less and 404 every resume.
func loadKeyring(keySpec, keyFile string) (*token.Keyring, error) {
	if keyFile != "" {
		if keySpec != "" {
			return nil, errors.New("-token-key and -token-key-file are mutually exclusive")
		}
		data, err := os.ReadFile(keyFile)
		if err != nil {
			return nil, fmt.Errorf("read -token-key-file: %w", err)
		}
		keySpec = strings.TrimSpace(string(data))
		if keySpec == "" {
			return nil, fmt.Errorf("-token-key-file %s holds no key", keyFile)
		}
	}
	if keySpec == "" {
		return nil, nil
	}
	kr, err := token.ParseKeyring(keySpec)
	if err != nil {
		return nil, err
	}
	return kr, nil
}
