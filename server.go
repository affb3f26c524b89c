package mwllsc

import (
	"time"

	"mwllsc/internal/server"
)

// Server serves a Sharded map over TCP with the llscd wire protocol —
// the embeddable form of cmd/llscd, for processes that want to own the
// map (and keep using it in-process) while also serving remote
// clients. The map is shared safely: local handles and remote traffic
// go through the same registry and see the same linearizable history.
type Server = server.Server

// ServerOption configures NewServer.
type ServerOption = server.Option

// ErrServerClosed is what Server.Serve returns after a clean Close.
var ErrServerClosed = server.ErrClosed

// NewServer creates a serving layer over m; call Listen and Serve (or
// ListenAndServe) to accept clients, Close for a graceful drain. The
// server records its latency, batch-size and update-attempt histograms
// (the latency quantiles Client.Stats reports) and traces each request
// flagged on the wire with a trace id (docs/WIRE.md), echoing its stage
// breakdown; head sampling is off.
//
//	m, _ := mwllsc.NewSharded(16, 16, 2)
//	s := mwllsc.NewServer(m)
//	go s.ListenAndServe("127.0.0.1:7787")
//	...
//	s.Close()
func NewServer(m *Sharded, opts ...ServerOption) *Server {
	return server.New(m, opts...)
}

// WithServerMaxBatch caps how many pipelined requests the server
// executes per registry acquisition (default 64).
func WithServerMaxBatch(n int) ServerOption { return server.WithMaxBatch(n) }

// WithServerLogf installs a logger for per-connection errors (default:
// dropped).
func WithServerLogf(logf func(format string, args ...any)) ServerOption {
	return server.WithLogf(logf)
}

// WithServerMaxConns caps concurrently open connections; excess
// connections are closed at accept (default 0 = unlimited).
func WithServerMaxConns(n int) ServerOption { return server.WithMaxConns(n) }

// WithServerIdleTimeout closes a connection whose next request does not
// arrive within d (default 0 = never).
func WithServerIdleTimeout(d time.Duration) ServerOption { return server.WithIdleTimeout(d) }

// WithServerWriteTimeout evicts a connection whose peer stops reading
// its responses for d (default 0 = never) — the slow-reader defense
// that keeps one stalled client from pinning buffers forever.
func WithServerWriteTimeout(d time.Duration) ServerOption { return server.WithWriteTimeout(d) }

// WithServerMaxInflight bounds concurrently executing request batches
// (default 0 = unbounded). Excess batches are rejected whole with a
// retryable busy status before touching the map; the Client retries
// them automatically with backoff. This is the admission control that
// keeps goodput near capacity under overload instead of collapsing
// into queueing delay.
func WithServerMaxInflight(n int) ServerOption { return server.WithMaxInflight(n) }
