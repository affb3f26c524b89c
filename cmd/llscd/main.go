// Command llscd is the mwllsc serving daemon: it owns a sharded
// multiword LL/SC map (shard.Map) and serves the five data operations —
// Update, Read, Snapshot, UpdateMulti, SnapshotAtomic — plus server
// stats over TCP with the pipelined binary protocol of internal/wire.
// Reach it with the mwllsc.Client (mwllsc.Dial) or any implementation
// of the wire format.
//
// Usage:
//
//	llscd [-addr 127.0.0.1:7787] [-shards 16] [-slots 16] [-words 2]
//	      [-impl jp] [-maxbatch 64] [-v] [-admin ""]
//	      [-dir ""] [-fsync everysec] [-checkpoint-interval 1m]
//	      [-trace-sample 0] [-slow-threshold 0]
//	      [-max-conns 0] [-idle-timeout 0] [-write-timeout 0]
//	      [-max-inflight 0] [-degrade-on-disk-error]
//
// With -dir the daemon is durable: committed updates are appended to
// one log in that directory (fsynced per -fsync: none, everysec or
// always), checkpoints are taken every -checkpoint-interval, and
// startup recovers the previous state from checkpoint plus logs. The
// geometry flags (-shards, -words) must match the directory's; see
// docs/OPERATIONS.md for the per-policy durability contract. Without
// -dir the map is purely in-memory, as before.
//
// With -admin ADDR the daemon serves an admin HTTP plane on ADDR (port
// 0 picks a free port; the bound address is printed as "llscd: admin
// on ..."): Prometheus-text metrics on /metrics, a JSON snapshot with
// histogram quantiles on /statsz, a liveness probe on /healthz (503
// once the durability layer has a sticky disk failure; the body echoes
// the build info), recent traces on /tracez and the slowest traces
// with stage breakdowns on /slowz, and the standard Go profiler under
// /debug/pprof/. See docs/OBSERVABILITY.md for the metric catalog.
//
// The overload controls are off by default and opt-in per deployment:
// -max-conns caps open connections (excess closed at accept),
// -idle-timeout and -write-timeout evict silent and non-reading peers,
// -max-inflight bounds concurrently executing batches (excess rejected
// with the retryable busy status instead of queueing), and
// -degrade-on-disk-error turns a sticky durability failure into
// read-only degraded mode — reads keep serving from memory, updates are
// rejected as unavailable — instead of accepting updates that would not
// survive a restart. docs/OPERATIONS.md has the runbook.
//
// Per-request tracing (internal/trace) is always compiled in: requests
// flagged by the client are traced on demand, -trace-sample N
// additionally head-samples 1 in N requests per connection, and every
// trace slower than -slow-threshold emits one structured slow-op log
// line on stdout. With sampling off and no flagged requests the
// tracing layer costs one clock read per batch.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting, closes open connections, waits for the per-connection
// goroutines to drain, and (with -dir) writes a final checkpoint.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mwllsc/internal/fault"
	"mwllsc/internal/impls"
	"mwllsc/internal/obs"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/trace"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], stop, os.Stdout, os.Stderr))
}

func run(args []string, stop <-chan os.Signal, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llscd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7787", "TCP listen address (port 0 picks a free port)")
		shards   = fs.Int("shards", 16, "number of independent multiword objects (K)")
		slots    = fs.Int("slots", 16, "process slots shared by all shards (N); bounds concurrent batches")
		words    = fs.Int("words", 2, "value width per shard in 64-bit words (W)")
		impl     = fs.String("impl", "jp", "implementation backing each shard (one of "+strings.Join(impls.Names(), ",")+")")
		maxBatch = fs.Int("maxbatch", 64, "max pipelined requests executed per registry acquisition")
		admin    = fs.String("admin", "", "admin HTTP listen address: /metrics, /statsz, /healthz, /debug/pprof (empty = disabled, port 0 picks a free port)")
		verbose  = fs.Bool("v", false, "log per-connection errors")
		dir      = fs.String("dir", "", "data directory for the durability layer (empty = in-memory only)")
		fsyncStr = fs.String("fsync", "everysec", "log fsync policy: none, everysec or always")
		ckptDur  = fs.Duration("checkpoint-interval", time.Minute, "time between checkpoints (0 = only at shutdown)")
		sampleN  = fs.Uint64("trace-sample", 0, "head-sample 1 in N requests per connection into /tracez and /slowz (0 = only client-flagged requests)")
		slowThr  = fs.Duration("slow-threshold", 0, "log one structured slow-op line per trace slower than this (0 = never)")
		maxConns = fs.Int("max-conns", 0, "max open connections; excess closed at accept (0 = unlimited)")
		idleTO   = fs.Duration("idle-timeout", 0, "close a connection whose next request does not arrive within this (0 = never)")
		writeTO  = fs.Duration("write-timeout", 0, "evict a connection whose peer stops reading responses for this long (0 = never)")
		inflight = fs.Int("max-inflight", 0, "max concurrently executing batches; excess rejected with the retryable busy status (0 = unbounded)")
		degrade  = fs.Bool("degrade-on-disk-error", false, "serve read-only (updates rejected as unavailable) once the durability log has a sticky failure")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !server.SnapshotFits(*shards, *words) {
		fmt.Fprintf(stderr, "llscd: K=%d × W=%d words cannot fit a snapshot response in one wire frame\n", *shards, *words)
		return 2
	}
	m, err := impls.NewSharded(*impl, *shards, *slots, *words)
	if err != nil {
		fmt.Fprintf(stderr, "llscd: %v\n", err)
		return 1
	}
	// Every server keeps its histograms and a tracer; the daemon's tracer
	// carries -trace-sample, -slow-threshold and the slow-op log line.
	tr := trace.New(trace.Config{
		SampleN:       *sampleN,
		SlowThreshold: *slowThr,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stdout, "llscd: "+format+"\n", a...)
		},
	})
	opts := []server.Option{
		server.WithMaxBatch(*maxBatch),
		server.WithTracer(tr),
		server.WithMaxConns(*maxConns),
		server.WithIdleTimeout(*idleTO),
		server.WithWriteTimeout(*writeTO),
		server.WithMaxInflight(*inflight),
		server.WithDegradeOnDiskError(*degrade),
	}
	if *verbose {
		opts = append(opts, server.WithLogf(func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		}))
	}
	var st *persist.Store
	if *dir != "" {
		policy, err := persist.ParsePolicy(*fsyncStr)
		if err != nil {
			fmt.Fprintf(stderr, "llscd: %v\n", err)
			return 2
		}
		popts := persist.Options{Policy: policy}
		// Crash-harness knobs, deliberately env-only: the fault-injecting
		// log layer (internal/fault) is for tests that SIGKILL the daemon
		// mid-failure and audit recovery, never for deployments, so it
		// does not get a flag. Any activation is announced loudly.
		writeAfter := envInt64(stderr, "LLSCD_FAULT_WRITE_AFTER")
		fsyncAfter := envInt64(stderr, "LLSCD_FAULT_FSYNC_AFTER")
		if writeAfter > 0 || fsyncAfter > 0 {
			ff := fault.NewFiles(fault.FilesConfig{
				FailWriteAfterBytes: writeAfter,
				FailFsyncAfter:      int(fsyncAfter),
			})
			popts.OpenLog = func(path string) (persist.LogFile, error) { return ff.Open(path) }
			fmt.Fprintf(stdout, "llscd: FAULT INJECTION ACTIVE: log writes fail after %d bytes, fsync after %d rounds\n",
				writeAfter, fsyncAfter)
		}
		var rec persist.Recovery
		t0 := time.Now()
		st, rec, err = persist.Open(*dir, m, popts)
		if err != nil {
			fmt.Fprintf(stderr, "llscd: %v\n", err)
			return 1
		}
		defer st.Close()
		fmt.Fprintf(stdout, "llscd: recovered %s: checkpoint=%v replayed=%d skipped=%d repaired=%d segments=%d next-seq=%d in %v\n",
			*dir, rec.Checkpoint, rec.Replayed, rec.Skipped, rec.Repaired, rec.Segments, rec.NextSeq, time.Since(t0).Round(time.Microsecond))
		opts = append(opts, server.WithPersist(st))
	}
	s := server.New(m, opts...)
	bound, err := s.Listen(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "llscd: %v\n", err)
		return 1
	}
	durable := "in-memory"
	if st != nil {
		durable = "dir=" + *dir + " fsync=" + st.Policy().String()
	}
	fmt.Fprintf(stdout, "llscd: %s\n", obs.BuildInfo())
	fmt.Fprintf(stdout, "llscd: serving K=%d shards × W=%d words (N=%d slots, impl=%s, maxbatch=%d, %s) on %s\n",
		*shards, *words, *slots, *impl, *maxBatch, durable, bound)

	if *admin != "" {
		reg := obs.NewRegistry()
		s.RegisterMetrics(reg)
		healthz := func() error { return nil }
		if st != nil {
			healthz = st.Err
		}
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintf(stderr, "llscd: admin: %v\n", err)
			return 1
		}
		mux := obs.NewAdminMux(reg, healthz, obs.BuildInfo())
		mux.HandleFunc("/tracez", tr.ServeTracez)
		mux.HandleFunc("/slowz", tr.ServeSlowz)
		adminSrv := &http.Server{Handler: mux}
		adminDone := make(chan struct{})
		go func() {
			defer close(adminDone)
			if err := adminSrv.Serve(al); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "llscd: admin: %v\n", err)
			}
		}()
		defer func() {
			// Close (not Shutdown): admin requests are cheap and
			// stateless, nothing is worth delaying process exit for.
			adminSrv.Close()
			<-adminDone
		}()
		fmt.Fprintf(stdout, "llscd: admin on %s\n", al.Addr())
	}

	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	var ckptTicker *time.Ticker
	var ckptTick <-chan time.Time
	if st != nil && *ckptDur > 0 {
		ckptTicker = time.NewTicker(*ckptDur)
		ckptTick = ckptTicker.C
		defer ckptTicker.Stop()
	}
	for {
		select {
		case <-ckptTick:
			if err := st.Checkpoint(); err != nil {
				fmt.Fprintf(stderr, "llscd: checkpoint: %v\n", err)
			} else if *verbose {
				fmt.Fprintf(stdout, "llscd: checkpoint written\n")
			}
		case <-stop:
			fmt.Fprintf(stdout, "llscd: shutting down\n")
			if err := s.Close(); err != nil {
				fmt.Fprintf(stderr, "llscd: close: %v\n", err)
				return 1
			}
			<-served
			if st != nil {
				// All connections have drained; one final checkpoint
				// makes the next startup instant (empty logs).
				if err := st.Checkpoint(); err != nil {
					fmt.Fprintf(stderr, "llscd: final checkpoint: %v\n", err)
					return 1
				}
			}
			sv := s.Stats()
			fmt.Fprintf(stdout, "llscd: served %d requests over %d connections\n", sv.Reqs, sv.ConnsTotal)
			return 0
		case err := <-served:
			if err == server.ErrClosed {
				return 0
			}
			fmt.Fprintf(stderr, "llscd: serve: %v\n", err)
			return 1
		}
	}
}

// envInt64 parses an optional integer environment variable (the
// crash-harness fault knobs); unset or empty means 0, garbage is
// reported and treated as unset rather than silently arming a fault.
func envInt64(stderr io.Writer, name string) int64 {
	v := os.Getenv(name)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		fmt.Fprintf(stderr, "llscd: ignoring %s=%q: %v\n", name, v, err)
		return 0
	}
	return n
}
