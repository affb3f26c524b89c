package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestShardedUpdateThroughputRuns(t *testing.T) {
	ops, err := ShardedUpdateThroughput("jp", 4, 4, 2, 4, false, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 {
		t.Fatal("zero sharded throughput")
	}
	if _, err := ShardedUpdateThroughput("jp", 2, 2, 2, 4, false, time.Millisecond); err == nil {
		t.Fatal("accepted g > n")
	}
	if _, err := ShardedUpdateThroughput("nonexistent", 2, 2, 2, 2, false, time.Millisecond); err == nil {
		t.Fatal("accepted unknown implementation")
	}
}

func TestRegistryUpdateThroughputModes(t *testing.T) {
	for _, mode := range []string{"raw", "pinned", "peracq"} {
		ops, err := RegistryUpdateThroughput("jp", mode, 4, 2, 2, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if ops <= 0 {
			t.Fatalf("%s: zero throughput", mode)
		}
	}
	if _, err := RegistryUpdateThroughput("jp", "raw", 2, 2, 4, time.Millisecond); err == nil {
		t.Fatal("accepted g > n")
	}
	if _, err := RegistryUpdateThroughput("nonexistent", "raw", 2, 2, 2, time.Millisecond); err == nil {
		t.Fatal("accepted unknown implementation")
	}
}

func TestTxnUpdateThroughputRuns(t *testing.T) {
	ops, att, err := TxnUpdateThroughput("jp", 4, 4, 2, 4, 2, 64, true, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 || att < 1 {
		t.Fatalf("txn throughput %f, attempts %f", ops, att)
	}
	if _, _, err := TxnUpdateThroughput("jp", 2, 2, 2, 4, 2, 64, false, time.Millisecond); err == nil {
		t.Fatal("accepted g > n")
	}
	if _, _, err := TxnUpdateThroughput("jp", 2, 2, 2, 2, 3, 2, false, time.Millisecond); err == nil {
		t.Fatal("accepted keyspace < span")
	}
	if _, _, err := TxnUpdateThroughput("nonexistent", 2, 2, 2, 2, 1, 8, false, time.Millisecond); err == nil {
		t.Fatal("accepted unknown implementation")
	}
}

func TestTxnSnapshotThroughputRuns(t *testing.T) {
	snaps, fb, err := TxnSnapshotThroughput("jp", 4, 4, 2, 3, 2, 64, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if snaps <= 0 || fb < 0 || fb > 1 {
		t.Fatalf("snapshot throughput %f, fallback fraction %f", snaps, fb)
	}
	if _, _, err := TxnSnapshotThroughput("jp", 2, 2, 2, 1, 1, 8, time.Millisecond); err == nil {
		t.Fatal("accepted a single goroutine (no writers)")
	}
}

func TestShardExperimentsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow-ish; skipped with -short")
	}
	o := fast()
	o.Impls = []string{"jp"}
	for name, build := range map[string]func(Options) (*Table, error){
		"E8":  E8Sharding,
		"E9":  E9Registry,
		"E10": E10Transactions,
	} {
		tb, err := build(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
		var sb strings.Builder
		tb.Fprint(&sb)
		if !strings.Contains(sb.String(), name+":") {
			t.Fatalf("%s: table title missing experiment id:\n%s", name, sb.String())
		}
	}
}

// TestShardedThroughputScalesWithK pins the issue's acceptance criterion in
// the regime where it is deterministic even on one core: with a yielding
// modify step, aggregate update throughput must grow from K=1 to K=8 at 8
// goroutines (observed ~4x; asserted >= 1.2x to stay robust on loaded CI).
func TestShardedThroughputScalesWithK(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison needs a real measurement window; skipped with -short")
	}
	const (
		g   = 8
		w   = 4
		dur = 100 * time.Millisecond
	)
	one, err := ShardedUpdateThroughput("jp", 1, g, w, g, true, dur)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := ShardedUpdateThroughput("jp", 8, g, w, g, true, dur)
	if err != nil {
		t.Fatal(err)
	}
	if eight < 1.2*one {
		t.Fatalf("K=8 throughput %.0f not meaningfully above K=1 throughput %.0f", eight, one)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tb := &Table{
		ID:    "e8",
		Title: "demo sharding table",
		Note:  "a note",
		Cols:  []string{"impl", "K=1 upd/s"},
	}
	tb.AddRow("jp", 123456.0)
	tb.AddRow("lockmw", 7890.0)

	report := newReport("llscbench", []*Table{tb})
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip through encoding/json: %v", err)
	}
	if !reflect.DeepEqual(*report, back) {
		t.Fatalf("round-trip changed the report:\nwrote %+v\nread  %+v", *report, back)
	}
	if back.GoVersion != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", back.GoVersion, runtime.Version())
	}
	if len(back.Experiments) != 1 {
		t.Fatalf("%d experiments, want 1", len(back.Experiments))
	}
	exp := back.Experiments[0]
	if exp.ID != "e8" || len(exp.Rows) != 2 || len(exp.Records) != 2 {
		t.Fatalf("experiment did not survive: %+v", exp)
	}
	want := map[string]string{"experiment": "e8", "impl": "jp", "K=1 upd/s": "123456"}
	if !reflect.DeepEqual(exp.Records[0], want) {
		t.Fatalf("record = %v, want %v", exp.Records[0], want)
	}
}
