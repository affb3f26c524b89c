package server

import (
	"net"
	"runtime"
	"time"

	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// OpAllocs is heap allocations per request on the serving path, for
// Read and for Update.
type OpAllocs struct {
	Read, Update float64
}

// HotPathAllocs reports the steady-state heap allocations per request of
// the server's serving path — batch execute, response encode and the
// write — for Read and for Update. These are the numbers the E13
// allocation gate (internal/bench, TestE13AllocsZero) holds, and they
// must be zero: the per-slot responses, the recycled decode and
// write buffers, the reacquirable map handle and the pre-bound merge
// closures exist precisely so that serving a request costs no
// allocation.
//
// It drives executeBatch directly with pre-decoded batches and a
// connection that discards what is written, rather than a TCP socket:
// internal/bench cannot reach the unexported execute machinery, and a
// socket would fold goroutine wakeups and the kernel into a
// measurement whose entire point is an exact zero for the serving code
// alone (the request decode half is measured separately by E13's wire
// rows).
func HotPathAllocs(runs int) (OpAllocs, error) {
	const (
		k      = 4
		w      = 2
		batchN = 8
	)
	m, err := shard.NewMap(k, 2, w)
	if err != nil {
		return OpAllocs{}, err
	}
	// The server's own histograms and tracer (sampling off), admission
	// control enabled: the zero-allocs gate must hold with the full
	// observability stack and the overload controls armed, or those
	// layers would quietly exempt themselves from the discipline they
	// exist to watch. (The token is a non-blocking channel send per
	// batch — the gate proves it stays free.)
	s := New(m, WithMaxInflight(4))
	cs := s.newConnState(discardConn{})

	args := []uint64{1, 2}
	round := func() { s.executeBatch(cs) }
	measure := func(op wire.Op) float64 {
		cs.batch = cs.batch[:0]
		for i := 0; i < batchN; i++ {
			key := uint64(i) * 977
			br := batchReq{req: wire.Request{ID: uint64(i), Op: op, Key: key}}
			if op == wire.OpUpdate {
				br.req.Mode = wire.ModeAdd
				br.req.Args = args
			}
			cs.batch = append(cs.batch, br)
		}
		round() // warm the response slots, handle, and data buffers
		return allocsPerRun(runs, round) / batchN
	}
	return OpAllocs{Read: measure(wire.OpRead), Update: measure(wire.OpUpdate)}, nil
}

// discardConn is the connection HotPathAllocs serves: every write
// succeeds and goes nowhere. The embedded nil Conn makes any other
// method panic; the write path calls none of them.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// allocsPerRun mirrors testing.AllocsPerRun for non-test binaries (the
// same helper internal/bench keeps for E7; duplicated here because bench
// imports this package): average heap allocations per call to f over
// runs calls, with the world pinned to one proc.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warmup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
