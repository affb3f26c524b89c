package server

// The stats-counter contention regression tests: PR 3's server bumped
// reqs/reads/updates on globally shared atomics inside the batch
// executor — a cache-line hotspot at high GOMAXPROCS (ROADMAP item 5).
// The obs migration stripes every per-request counter by the registry
// slot the executor holds. "No shared cache line is written
// per-request" is proved deterministically, in the alloc_test.go
// spirit (structure, not timing, because CI runs on whatever cores it
// gets): TestExecuteBatchCountsOnHeldSlotStripe shows every
// per-request bump lands on exactly the held slot's stripe, and
// internal/obs's TestStripeAlignment shows distinct stripes are
// 128-byte-aligned and ≥128 bytes apart — together: distinct slots,
// distinct lines. TestCounterStripingUnderParallelLoad exercises the
// same property racing at GOMAXPROCS=4 (under -race in CI), and the
// BenchmarkCounter* pair measures the timing gap on real cores.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mwllsc/internal/obs"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// mkReadBatch fills cs.batch with n pre-decoded reads.
func mkReadBatch(m *shard.Map, cs *connState, n int) {
	cs.batch = cs.batch[:0]
	for i := 0; i < n; i++ {
		key := uint64(i) * 977
		br := batchReq{shardI: m.ShardIndex(key)}
		br.req = wire.Request{ID: uint64(i), Op: wire.OpRead, Key: key}
		cs.batch = append(cs.batch, br)
	}
}

func TestExecuteBatchCountsOnHeldSlotStripe(t *testing.T) {
	const batchN = 8
	m, err := shard.NewMap(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, WithMetrics(NewMetrics(m.N())))
	if got := s.ctrs.Stripes(); got != m.N() {
		t.Fatalf("counter stripes = %d, want one per registry slot = %d", got, m.N())
	}
	cs := s.newConnState(discardConn{})
	mkReadBatch(m, cs, batchN)
	s.executeBatch(cs)
	p := cs.h.Process()
	for st := 0; st < s.ctrs.Stripes(); st++ {
		wantReqs, wantBatches := uint64(0), uint64(0)
		if st == p {
			wantReqs, wantBatches = batchN, 1
		}
		if got := s.ctrs.StripeSum(st, cReqs); got != wantReqs {
			t.Errorf("stripe %d reqs = %d, want %d (batch held slot %d)", st, got, wantReqs, p)
		}
		if got := s.ctrs.StripeSum(st, cReads); got != wantReqs {
			t.Errorf("stripe %d reads = %d, want %d", st, got, wantReqs)
		}
		if got := s.ctrs.StripeSum(st, cBatches); got != wantBatches {
			t.Errorf("stripe %d batches = %d, want %d", st, got, wantBatches)
		}
	}
	if got := s.Stats().Reqs; got != batchN {
		t.Errorf("Stats().Reqs = %d, want %d (cross-stripe fold)", got, batchN)
	}
}

func TestCounterStripingUnderParallelLoad(t *testing.T) {
	// Four executors race batches at GOMAXPROCS=4 (under -race in CI).
	// Distinct live handles hold distinct slots, so every stripe total
	// must be a whole number of batches — a request counted on any
	// stripe other than its batch's slot would break that — and the
	// fold must see every request exactly once.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		goroutines = 4
		rounds     = 50
		batchN     = 8
	)
	m, err := shard.NewMap(4, goroutines, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, WithMetrics(NewMetrics(m.N())))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := s.newConnState(discardConn{})
			for r := 0; r < rounds; r++ {
				mkReadBatch(m, cs, batchN)
				s.executeBatch(cs)
			}
		}()
	}
	wg.Wait()
	var sum uint64
	for st := 0; st < s.ctrs.Stripes(); st++ {
		n := s.ctrs.StripeSum(st, cReqs)
		if n%batchN != 0 {
			t.Errorf("stripe %d holds %d reqs, not a whole number of %d-request batches", st, n, batchN)
		}
		sum += n
	}
	if want := uint64(goroutines * rounds * batchN); sum != want {
		t.Errorf("stripes sum to %d reqs, want %d", sum, want)
	}
}

// The benchmark pair behind the striping decision: run with
//
//	go test -run xx -bench 'Counter(Shared|Striped)' -cpu 4 ./internal/server/
//
// on a multicore box to see the shared-line penalty. On the 1-CPU CI
// container the gap mostly vanishes (no true parallelism), which is
// why the tests above gate the structure rather than the timing.
func BenchmarkCounterShared(b *testing.B) {
	var c atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkCounterStriped(b *testing.B) {
	c := obs.NewCounters(runtime.GOMAXPROCS(0), 1)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		st := int(next.Add(1)-1) % c.Stripes()
		for pb.Next() {
			c.Add(st, 0, 1)
		}
	})
}
