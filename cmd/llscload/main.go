// Command llscload is the standalone closed-loop load generator for the
// llscd serving layer, pointed at any server. With -addr it drives a
// running llscd; without it, it spins an in-process server over
// loopback first. (The repo's regression benchmark is cmd/llscperf;
// llscload is the tool for probing one server by hand.)
//
// Usage:
//
//	llscload [-addr host:port] [-conns 4] [-workers 64] [-dur 2s]
//	         [-timeout 0]
//	         [-shards 16] [-slots 16] [-words 2] [-maxbatch 64]
//	         [-json out.json] [-trace 0]
//
// It reports aggregate throughput, client-side p50/p99 latency, the
// server-side batch-execute p50/p99 from the target's latency
// histograms (zero against servers that predate them), the server's
// average batch size, and the count of failed operations, in the same
// table and JSON formats as llscbench (the table keeps the id e11 of
// the retired llscbench serving experiment). The gap between the
// client and server columns is the wire, syscall and queue time. Any
// op errors make the run exit nonzero (after reporting), so a CI smoke
// cannot pass on a silently failing load.
//
// With -trace N every Nth request per worker is traced end to end
// (wire-propagated trace id, see docs/OBSERVABILITY.md): a second
// table breaks the p50 and p99 exemplar requests into client
// write-buffer wait, on-wire round trip, and — against an llscd with
// tracing — the six server stages (decode, queue, acquire, execute,
// persist, fsync), each row grep-able in the server's /tracez by trace
// id.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"time"

	"mwllsc/internal/bench"
	"mwllsc/internal/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llscload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "llscd address to drive; empty = start an in-process server")
		conns    = fs.Int("conns", 4, "client connection-pool size")
		workers  = fs.Int("workers", 64, "closed-loop worker goroutines (pipelining depth = workers/conns)")
		dur      = fs.Duration("dur", 2*time.Second, "measurement window")
		shards   = fs.Int("shards", 16, "in-process server: shard count K")
		slots    = fs.Int("slots", 16, "in-process server: process slots N")
		words    = fs.Int("words", 2, "value width in 64-bit words W (must match a remote server)")
		maxBatch = fs.Int("maxbatch", 64, "in-process server: max requests per registry acquisition")
		jsonOut  = fs.String("json", "", "also write a JSON report to this path (\"-\" = stdout only)")
		traceN   = fs.Int("trace", 0, "trace every Nth request per worker and print p50/p99 end-to-end stage exemplars (0 = off)")
		timeout  = fs.Duration("timeout", 0, "per-operation deadline; a stalled server turns into counted op errors instead of a hung loadgen (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *conns < 1 || *workers < *conns {
		fmt.Fprintf(stderr, "llscload: need conns >= 1 and workers >= conns (got %d/%d)\n", *conns, *workers)
		return 2
	}

	target := *addr
	if target == "" {
		n := *slots
		if n < *conns+2 {
			// Each in-flight batch pins a slot; keep spares so the
			// loadgen's stats calls never queue behind its own load.
			n = *conns + 2
		}
		srv, a, err := bench.StartLoopbackServer(*shards, n, *words, *maxBatch)
		if err != nil {
			fmt.Fprintf(stderr, "llscload: %v\n", err)
			return 1
		}
		defer srv.Close()
		target = a
		// The banner goes to stderr so that -json - leaves stdout pure JSON.
		fmt.Fprintf(stderr, "llscload: in-process llscd (K=%d N=%d W=%d) on %s\n", *shards, n, *words, target)
	}

	// Preflight before spinning up workers: an unreachable or wedged
	// target should fail in seconds with a clear message, not leave the
	// loadgen (or a CI job) hanging in a TCP connect for minutes.
	preflight := 3 * time.Second
	if *timeout > 0 {
		preflight = *timeout
	}
	if nc, err := net.DialTimeout("tcp", target, preflight); err != nil {
		fmt.Fprintf(stderr, "llscload: target unreachable: %v\n", err)
		return 1
	} else {
		nc.Close()
	}

	var copts []client.Option
	if *timeout > 0 {
		copts = append(copts, client.WithOpTimeout(*timeout))
	}
	res, err := bench.NetLoadClosedLoop(target, *conns, *workers, *words, *dur, *traceN, copts...)
	if err != nil {
		fmt.Fprintf(stderr, "llscload: %v\n", err)
		return 1
	}

	t := &bench.Table{
		ID:    "e11",
		Title: fmt.Sprintf("llscload: closed-loop serving load against %s (%v)", target, *dur),
		Note:  "one Add per round trip per worker; workers pipeline through the shared connection pool.",
		Cols:  []string{"conns", "inflight", "ops", "errs", "ops/s", "p50 us", "p99 us", "srv p50 us", "srv p99 us", "avg batch"},
	}
	t.AddRow(*conns, *workers, res.Ops, res.Errs, res.OpsPerSec,
		float64(res.P50.Nanoseconds())/1e3, float64(res.P99.Nanoseconds())/1e3,
		float64(res.SrvP50.Nanoseconds())/1e3, float64(res.SrvP99.Nanoseconds())/1e3, res.AvgBatch)
	tables := []*bench.Table{t}
	if *traceN > 0 {
		tables = append(tables, traceTable(res.Traces, target))
	}

	jsonOnly := *jsonOut == "-"
	if !jsonOnly {
		for _, tab := range tables {
			tab.Fprint(stdout)
		}
	}
	if *jsonOut != "" {
		if err := bench.WriteReport(*jsonOut, "llscload", tables, stdout); err != nil {
			fmt.Fprintf(stderr, "llscload: %v\n", err)
			return 1
		}
	}
	if res.Errs > 0 {
		fmt.Fprintf(stderr, "llscload: %d op error(s), e.g. %s\n", res.Errs, res.LastErr)
		return 1
	}
	return 0
}

// traceTable breaks the p50 and p99 exemplar traced requests into the
// end-to-end stages: client write-buffer wait, on-wire round trip (the
// round trip minus whatever the server accounted for), and the six
// server-side stages echoed on the wire. Against a server without
// tracing the server columns are zero and "wire us" is the whole round
// trip.
func traceTable(traces []client.Trace, target string) *bench.Table {
	t := &bench.Table{
		ID:    "trace",
		Title: fmt.Sprintf("llscload: end-to-end stage breakdown of traced exemplars against %s", target),
		Note: "queue = client write-buffer wait; wire = round trip minus server-accounted time; " +
			"server stages per docs/OBSERVABILITY.md; trace ids grep-able in the server's /tracez and /slowz.",
		Cols: []string{"exemplar", "trace", "total us", "queue us", "wire us",
			"decode us", "srv queue us", "acquire us", "execute us", "persist us", "fsync us"},
	}
	if len(traces) == 0 {
		return t
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Total < traces[j].Total })
	rows := []struct {
		name string
		tr   client.Trace
	}{
		{"p50", bench.Quantile(traces, 0.50)},
		{"p99", bench.Quantile(traces, 0.99)},
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	for _, r := range rows {
		var srv [6]uint64
		var srvSum uint64
		for i, ns := range r.tr.ServerStages {
			if i >= len(srv) {
				break
			}
			srv[i] = ns
			srvSum += ns
		}
		wire := r.tr.RoundTrip.Nanoseconds() - int64(srvSum)
		if wire < 0 {
			wire = 0
		}
		t.AddRow(r.name, fmt.Sprintf("%016x", r.tr.ID),
			float64(r.tr.Total.Nanoseconds())/1e3,
			float64(r.tr.QueueWait.Nanoseconds())/1e3,
			float64(wire)/1e3,
			us(srv[0]), us(srv[1]), us(srv[2]), us(srv[3]), us(srv[4]), us(srv[5]))
	}
	return t
}
