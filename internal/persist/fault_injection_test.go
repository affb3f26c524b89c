package persist

import (
	"errors"
	"reflect"
	"testing"

	"mwllsc/internal/fault"
	"mwllsc/internal/wire"
)

// TestFaultInjectedTornWriteNoAckedLoss drives the store through
// internal/fault's disk layer until a torn write poisons it, then
// recovers the directory and checks the durability contract under
// injected failure: every Append that returned nil is recovered, the
// failure is sticky (no append is accepted afterwards, so nothing can
// be acked and then lost), and Sick()/Err() report it.
func TestFaultInjectedTornWriteNoAckedLoss(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	ff := fault.NewFiles(fault.FilesConfig{FailWriteAfterBytes: 900})
	st, _ := openStore(t, dir, m, Options{
		OpenLog: func(path string) (LogFile, error) { return ff.Open(path) },
	})

	// The map holds one value per shard, so track the last *acked* Set
	// per shard: that is exactly what recovery must reproduce —
	// in-memory commits whose Append failed were never acked and may
	// vanish.
	acked := map[uint64][]uint64{} // sample key per shard -> last acked args
	ackedCount := 0
	failures := 0
	for i := uint64(0); i < 200; i++ {
		args := []uint64{i + 1, 2*i + 1}
		var seq uint64
		m.Update(i, func(v []uint64) {
			wire.Merge(v, args, wire.ModeSet)
			seq = st.NextSeq()
		})
		err := st.Append([]Record{{Seq: seq, Op: wire.OpUpdate, Mode: wire.ModeSet, Key: i, Args: args}})
		if err != nil {
			failures++
			if !st.Sick() || st.Err() == nil {
				t.Fatalf("Append failed (%v) but Sick=%v Err=%v", err, st.Sick(), st.Err())
			}
		} else {
			if failures > 0 {
				t.Fatalf("Append %d accepted after a sticky failure — could be acked then lost", i)
			}
			acked[uint64(m.ShardIndex(i))] = args
			ackedCount++
		}
	}
	if failures == 0 || ff.Injected() == 0 {
		t.Fatalf("fault never fired: failures=%d injected=%d", failures, ff.Injected())
	}
	if !errors.Is(st.Err(), fault.ErrInjected) {
		t.Fatalf("Err() = %v, want the injected failure", st.Err())
	}
	st.Close()

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if rec.Replayed < ackedCount {
		t.Fatalf("recovered %d records, want >= %d acked", rec.Replayed, ackedCount)
	}
	got := make([]uint64, tW)
	for sh, want := range acked {
		m2.Read(m2.KeyForShard(int(sh)), got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("acked write to shard %d lost: got %v want %v", sh, got, want)
		}
	}
}
