package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mwllsc/internal/trace"
)

func TestNetLoadClosedLoop(t *testing.T) {
	srv, addr, err := StartLoopbackServer(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := NetLoadClosedLoop(addr, 2, 4, 2, 30*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.OpsPerSec <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible latencies: %+v", res)
	}
	if res.AvgBatch <= 0 {
		t.Fatalf("no batching stats: %+v", res)
	}
}

// TestLatSamplerUniform feeds a ramp eight times the sample bound
// through the latency sampler: the kept sample's median must land on
// the ramp's median. Overwriting a fixed slot pattern once the buffer
// is full keeps mostly early values instead, and its median lands near
// an eighth of the true one.
func TestLatSamplerUniform(t *testing.T) {
	const n = 8 * latencySamples
	s := newLatSampler(1)
	for i := 0; i < n; i++ {
		s.add(time.Duration(i))
	}
	if len(s.kept) != latencySamples {
		t.Fatalf("kept %d samples, want %d", len(s.kept), latencySamples)
	}
	kept := slices.Clone(s.kept)
	slices.Sort(kept)
	got, want := kept[len(kept)/2], time.Duration(n/2)
	if d := got - want; d > n/50 || -d > n/50 {
		t.Fatalf("kept median %d, want %d ± %d", got, want, n/50)
	}
}

func TestNetLoadWrongWidthFails(t *testing.T) {
	srv, addr, err := StartLoopbackServer(2, 3, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// w=1 against a W=4 server: the server rejects every Add. The worker
	// counts and continues, so the zero-success error must report more
	// than one failure — proof it did not abort on the first.
	_, err = NetLoadClosedLoop(addr, 1, 1, 1, 20*time.Millisecond, 0)
	if err == nil {
		t.Fatal("width mismatch went unnoticed")
	}
	if !strings.Contains(err.Error(), "errors") {
		t.Fatalf("error does not carry the failure count: %v", err)
	}
}

func TestNetLoadTraced(t *testing.T) {
	srv, addr, err := StartLoopbackServer(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := NetLoadClosedLoop(addr, 1, 2, 2, 30*time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) == 0 {
		t.Fatal("traceEvery=4 collected no traces")
	}
	for _, tr := range res.Traces {
		if tr.ID == 0 || tr.Total <= 0 {
			t.Fatalf("incomplete trace: %+v", tr)
		}
		// The loopback server runs with a tracer attached, so the
		// server-side stage breakdown must come back on the wire.
		if len(tr.ServerStages) != trace.WireStages {
			t.Fatalf("trace has %d server stages, want %d: %+v", len(tr.ServerStages), trace.WireStages, tr)
		}
	}
	if res.Errs != 0 {
		t.Fatalf("unexpected op errors: %d (%s)", res.Errs, res.LastErr)
	}
}
