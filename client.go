package mwllsc

import (
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/wire"
)

// Client is a pooled, pipelining connection to an llscd server
// (cmd/llscd): the remote counterpart of Sharded, with the same
// consistency contract per operation — Add/Set/Read linearizable on the
// key's shard, AddMulti/SetMulti one cross-shard atomic commit,
// Snapshot per-shard atomic, SnapshotAtomic cross-shard linearizable.
// All methods are safe for concurrent use; concurrent calls coalesce
// into pipelined batches on the wire automatically. See Dial.
type Client = client.Client

// ClientOption configures Dial.
type ClientOption = client.Option

// ServerStats is the llscd counter snapshot returned by Client.Stats.
type ServerStats = wire.ServerStats

// Dial connects a Client to an llscd server.
//
//	c, err := mwllsc.Dial("127.0.0.1:7787", mwllsc.WithClientConns(4))
//	...
//	v, err := c.Add(ctx, mwllsc.HashBytes([]byte("user:1234")), []uint64{1, 0})
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	return client.Dial(addr, opts...)
}

// WithClientConns sets the connection-pool size (default 1); each
// connection's in-flight batch occupies one of the server's N registry
// slots, so more connections raise server-side parallelism.
func WithClientConns(n int) ClientOption { return client.WithConns(n) }

// WithClientOpTimeout sets a default per-operation deadline applied to
// calls whose context has none (default: none). The deadline surfaces
// as context.DeadlineExceeded, exactly as a caller-supplied one would.
func WithClientOpTimeout(d time.Duration) ClientOption { return client.WithOpTimeout(d) }

// WithClientRetries caps automatic retries per operation (default 3;
// 0 disables). Retries apply to idempotent operations on connection
// failure and to any operation the server explicitly rejected without
// executing (busy); updates whose connection died mid-flight are never
// blindly retried — see ErrConnBroken.
func WithClientRetries(n int) ClientOption { return client.WithRetries(n) }

// WithClientBackoff sets the retry backoff's base and cap (defaults
// 2ms and 250ms): delays double from base per attempt, jittered, up to
// the cap. The same schedule paces reconnection of broken pool slots.
func WithClientBackoff(base, max time.Duration) ClientOption { return client.WithBackoff(base, max) }

// Typed client errors, matched with errors.Is.
var (
	// ErrClientClosed is returned by operations on a closed Client.
	ErrClientClosed = client.ErrClosed
	// ErrConnBroken marks an operation whose connection died without a
	// response. For updates this is deliberately ambiguous — the server
	// may or may not have executed the op — so the client surfaces it
	// instead of retrying; the caller decides whether re-issuing is safe.
	ErrConnBroken = client.ErrConnBroken
	// ErrRetriesExhausted wraps the final error after the retry budget
	// is spent; the underlying cause is still matchable through it.
	ErrRetriesExhausted = client.ErrRetriesExhausted
	// ErrBusy maps the server's overload rejection (StatusBusy): the
	// request was not executed and is safe to retry — the client does so
	// automatically within its retry budget.
	ErrBusy = client.ErrBusy
	// ErrUnavailable maps the server's degraded-mode rejection
	// (StatusUnavailable): updates are refused while the durability
	// layer is sick. Not retried — degraded mode is sticky until an
	// operator intervenes.
	ErrUnavailable = client.ErrUnavailable
)
