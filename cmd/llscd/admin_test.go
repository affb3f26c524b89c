package main

// The admin-plane smoke CI runs (see .github/workflows/ci.yml): start
// the daemon with -admin, hit /metrics and /healthz over real HTTP,
// assert a known metric name, cross-check the Prometheus totals
// against the Stats wire opcode, and verify shutdown leaks no
// goroutines. Written as a Go test rather than a curl script so the
// same check runs locally, under -race, and without shell quoting rot.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mwllsc/internal/client"
)

var adminRE = regexp.MustCompile(`admin on (127\.0\.0\.1:\d+)`)

// adminAddr waits for the daemon's "llscd: admin on ..." line.
func adminAddr(t *testing.T, out *syncBuf) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := adminRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported an admin address\nstdout: %s", out)
		}
		time.Sleep(time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// metricValue extracts an un-labeled metric's value from Prometheus
// text output.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not in /metrics output:\n%s", name, body)
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func TestAdminPlane(t *testing.T) {
	baseline := runtime.NumGoroutine()

	addr, out, shutdown := startDaemon(t,
		"-shards", "4", "-slots", "4", "-words", "2",
		"-admin", "127.0.0.1:0")
	aaddr := adminAddr(t, out)
	base := "http://" + aaddr

	// Drive some traffic so the counters are nonzero.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const updates = 10
	for i := 0; i < updates; i++ {
		if _, err := c.Add(ctx, uint64(i), []uint64{1, uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMulti(ctx, []uint64{1, 2}, [][]uint64{{1, 0}, {1, 0}}); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: code=%d body=%q", code, body)
	}

	// The wire Stats snapshot and the Prometheus totals must agree on
	// every word they share (the 15 striped counters and the three
	// geometry gauges): both fold the same striped banks. The Stats
	// request itself is counted before it executes, so its own request
	// is in Reqs; no wire traffic follows it, so /metrics sees the
	// identical totals.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	code, body = httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code=%d", code)
	}
	for name, want := range map[string]uint64{
		"llscd_connections_total":      st.ConnsTotal,
		"llscd_connections_open":       st.ConnsOpen,
		"llscd_requests_total":         st.Reqs,
		"llscd_updates_total":          st.Updates,
		"llscd_reads_total":            st.Reads,
		"llscd_snapshots_total":        st.Snapshots,
		"llscd_multis_total":           st.Multis,
		"llscd_batches_total":          st.Batches,
		"llscd_bad_requests_total":     st.BadReqs,
		"llscd_persist_errors_total":   st.PersistErrs,
		"llscd_conns_shed_total":       st.ShedConns,
		"llscd_busy_rejects_total":     st.BusyRejects,
		"llscd_evictions_total":        st.Evictions,
		"llscd_idle_closes_total":      st.IdleCloses,
		"llscd_degraded_rejects_total": st.DegradedRejects,
		"llscd_shards":                 st.Shards,
		"llscd_slots":                  st.Slots,
		"llscd_words":                  st.Words,
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %d, want %d (the Stats wire snapshot)", name, got, want)
		}
	}
	if !strings.Contains(body, "llscd_request_latency_seconds_bucket") {
		t.Errorf("/metrics missing the service-latency histogram:\n%s", body)
	}

	code, body = httpGet(t, base+"/statsz")
	if code != 200 {
		t.Fatalf("/statsz: code=%d", code)
	}
	var statsz map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &statsz); err != nil {
		t.Fatalf("/statsz is not JSON: %v\n%s", err, body)
	}
	var lat struct {
		Count uint64  `json:"count"`
		P99   float64 `json:"p99"`
	}
	if err := json.Unmarshal(statsz["llscd_request_latency_seconds"], &lat); err != nil {
		t.Fatalf("/statsz latency histogram: %v", err)
	}
	if lat.Count == 0 || lat.P99 <= 0 {
		t.Errorf("/statsz latency histogram empty after %d requests: %+v", updates, lat)
	}

	code, _ = httpGet(t, base+"/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}

	c.Close()
	if got := shutdown(); got != 0 {
		t.Fatalf("daemon exit code %d\nstdout: %s", got, out)
	}
	// Goroutine-leak check: the admin http.Server, its listener, and
	// every request goroutine must be gone after shutdown.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		stacks := string(buf)
		if strings.Contains(stacks, "net/http") ||
			strings.Contains(stacks, "mwllsc/internal/server.") ||
			strings.Contains(stacks, "main.run") {
			t.Fatalf("goroutine leak after shutdown: %d > baseline %d\n%s", n, baseline, stacks)
		}
	}
}

// traceSpan mirrors the /tracez | /slowz span JSON (internal/trace
// SpanJSON); only the fields this test asserts on.
type traceSpan struct {
	TraceID string            `json:"trace_id"`
	Sampled bool              `json:"sampled"`
	TotalNS uint64            `json:"total_ns"`
	Stages  map[string]uint64 `json:"stages_ns"`
}

type tracePage struct {
	Kind    string      `json:"kind"`
	SampleN uint64      `json:"sample_n"`
	Retired uint64      `json:"retired"`
	Spans   []traceSpan `json:"spans"`
}

func TestAdminTracePlane(t *testing.T) {
	baseline := runtime.NumGoroutine()

	addr, out, shutdown := startDaemon(t,
		"-shards", "4", "-slots", "4", "-words", "2",
		"-trace-sample", "2", "-slow-threshold", "1ns",
		"-admin", "127.0.0.1:0")
	aaddr := adminAddr(t, out)
	base := "http://" + aaddr

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One client-flagged trace with a known id plus enough plain traffic
	// that head sampling (1 in 2) must fire too.
	ct := client.Trace{ID: 0xfeedface}
	if _, err := c.Add(client.WithTrace(ctx, &ct), 1, []uint64{2, 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := c.Read(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Scrape mid-load: the daemon is still serving; spans retire after
	// the response flush, so poll until the rings are populated.
	var page tracePage
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := httpGet(t, base+"/tracez")
		if code != 200 {
			t.Fatalf("/tracez: code=%d", code)
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("/tracez is not JSON: %v\n%s", err, body)
		}
		if len(page.Spans) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/tracez never filled: %+v", page)
		}
		time.Sleep(time.Millisecond)
	}
	if page.Kind != "recent" || page.SampleN != 2 {
		t.Errorf("/tracez header: %+v", page)
	}

	code, body := httpGet(t, base+"/slowz")
	if code != 200 {
		t.Fatalf("/slowz: code=%d", code)
	}
	var slow tracePage
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/slowz is not JSON: %v\n%s", err, body)
	}
	if slow.Kind != "slow" || len(slow.Spans) == 0 {
		t.Fatalf("/slowz empty with a 1ns threshold: %+v", slow)
	}

	// Every span's stage breakdown must account for its total: the
	// flush stage is defined as the remainder, so the sum should land
	// within 10% of total_ns (clock granularity is the only slack).
	found := false
	for _, spans := range [][]traceSpan{page.Spans, slow.Spans} {
		for _, s := range spans {
			var sum uint64
			for _, ns := range s.Stages {
				sum += ns
			}
			lo, hi := s.TotalNS*9/10, s.TotalNS*11/10
			if sum < lo || sum > hi {
				t.Errorf("span %s: stage sum %d outside 10%% of total %d (%+v)",
					s.TraceID, sum, s.TotalNS, s.Stages)
			}
			if s.TraceID == "00000000feedface" && !s.Sampled {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("client-flagged trace 0xfeedface not in /tracez or /slowz")
	}

	// The client got the server-side breakdown back on the wire.
	if len(ct.ServerStages) == 0 || ct.Total <= 0 {
		t.Errorf("client trace not filled: %+v", ct)
	}

	// The 1ns threshold makes every trace slow; at least one structured
	// slow-op line must have hit stdout.
	if !strings.Contains(out.String(), "slow-op trace=") {
		t.Errorf("no slow-op log line on stdout:\n%s", out)
	}

	c.Close()
	if got := shutdown(); got != 0 {
		t.Fatalf("daemon exit code %d\nstdout: %s", got, out)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		stacks := string(buf)
		if strings.Contains(stacks, "net/http") ||
			strings.Contains(stacks, "mwllsc/internal/server.") ||
			strings.Contains(stacks, "mwllsc/internal/trace.") ||
			strings.Contains(stacks, "main.run") {
			t.Fatalf("goroutine leak after shutdown: %d > baseline %d\n%s", n, baseline, stacks)
		}
	}
}

func TestAdminHealthzTracksPersistFailure(t *testing.T) {
	// A durable daemon's /healthz is wired to the store's sticky error;
	// a healthy store answers 200.
	dir := t.TempDir()
	_, out, shutdown := startDaemon(t,
		"-shards", "4", "-slots", "4", "-words", "2",
		"-dir", dir, "-admin", "127.0.0.1:0")
	aaddr := adminAddr(t, out)
	code, body := httpGet(t, fmt.Sprintf("http://%s/healthz", aaddr))
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz on healthy durable daemon: code=%d body=%q", code, body)
	}
	if got := shutdown(); got != 0 {
		t.Fatalf("daemon exit code %d", got)
	}
}
