package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/impls"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/shard"
)

// Embedded geometry: few shards so two goroutines really conflict, and
// wide values so the O(W) copy in LL and SC shows.
const (
	embeddedShards = 4
	embeddedWords  = 8
	// embeddedSetups is how many set-ups setup_s is the median of: one
	// takes a few microseconds and varies threefold with the allocator's
	// state, so the median needs many to settle.
	embeddedSetups = 1001
	// embeddedTimeEvery times one operation in this many: reading the
	// clock twice adds about a sixth to an update here, so timing every
	// operation would move ops_s.
	embeddedTimeEvery = 8
	// traceEvery is how often a traced run records an operation's spans.
	traceEvery = 64
)

// embWorker is one in-process load goroutine with its pinned handle.
type embWorker struct {
	m      *shard.Map
	h      *shard.MapHandle
	g      *gen
	rd     *reader
	t      tally
	lane   *lane
	multis uint64 // multi-key updates completed inside the window
	buf    []uint64
	keys   []uint64
	snap   [][]uint64
	probe  *coreProbe // traced runs only
	spans  *spanLog
}

func addWord0(v []uint64) { v[0]++ }

func addWord1(vals [][]uint64) {
	for _, v := range vals {
		v[1]++
	}
}

func runEmbedded(cfg *config, wl *workload, p *probes) (*measure, error) {
	workers := min(2, cfg.procs)
	factory, err := impls.ByName(impls.JP)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.core = newCoreProbe(workers, p.phase)
		factory = p.core.factory()
	}
	m := &measure{}
	var mp *shard.Map
	var hs []*shard.MapHandle
	for range embeddedSetups {
		t0 := time.Now()
		mp, hs, err = embeddedSetup(factory, workers)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
	}

	phase := newPhase(p)
	if p != nil {
		p.m = mp
	}
	ws := make([]*embWorker, workers)
	lanes := newLanes(workers)
	var wg sync.WaitGroup
	for i := range ws {
		w := &embWorker{
			m: mp, h: hs[i], g: newGen(cfg.seed, i, wl.mix, false), lane: lanes[i],
			rd: newReader(embeddedShards), buf: make([]uint64, embeddedWords),
			keys: make([]uint64, 2), snap: mp.NewSnapshotBuffer(),
		}
		if p != nil {
			w.probe, w.spans = p.core, p.spans
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(phase)
		}()
	}
	m.runWindow(cfg, phase, lanes, p)
	wg.Wait()

	var multis uint64
	for _, w := range ws {
		m.tally.merge(&w.t)
		multis += w.multis
		w.h.Release()
	}
	final := mp.NewSnapshotBuffer()
	mp.SnapshotAtomic(final)
	m.checkErrs = checkFinal(final, &m.tally, 0, true)
	if p != nil {
		m.layers = append(p.coreMetrics(m.windowOps), p.windowMetrics(m.windowOps, multis)...)
		lm, err := ladders(cfg, embeddedShards, embeddedWords, wl.mix, false)
		if err != nil {
			return nil, err
		}
		m.layers = append(m.layers, lm...)
	}
	return m, nil
}

// embeddedSetup is what an embedding program does before its first
// operation: build the map and pin one handle per goroutine.
func embeddedSetup(f mwobj.Factory, workers int) (*shard.Map, []*shard.MapHandle, error) {
	m, err := shard.NewMap(embeddedShards, workers, embeddedWords, shard.WithFactory(f))
	if err != nil {
		return nil, nil, fmt.Errorf("building the map: %w", err)
	}
	hs := make([]*shard.MapHandle, workers)
	for i := range hs {
		hs[i] = m.Acquire()
	}
	return m, hs, nil
}

// loop runs operations until phase says stop. It reads the phase and
// publishes its completed-operation count every 64 operations, which
// keeps both off the per-operation path.
func (w *embWorker) loop(phase *atomic.Int32) {
	measuring := false
	var ops uint64
	for i := uint64(0); ; i++ {
		if i%64 == 0 {
			if ops > 0 {
				w.lane.ops.Add(ops)
				ops = 0
			}
			ph := phase.Load()
			if ph == phaseStop {
				return
			}
			measuring = ph == phaseMeasure
		}
		o := w.g.next()
		timed := measuring && i%embeddedTimeEvery == 0
		traced := w.probe != nil && measuring && i%traceEvery == 0
		var t0 time.Time
		if timed || traced {
			if traced {
				w.probe.begin(w.h.Process())
			}
			t0 = time.Now()
		}
		w.t.attempted[o.class]++
		switch o.class {
		case opUpdate:
			w.h.Update(o.key, addWord0)
		case opRead:
			w.h.Read(o.key, w.buf)
			w.rd.observe(w.m.ShardIndex(o.key), w.buf[0], &w.t)
		case opMulti:
			w.keys[0], w.keys[1] = o.key, o.key2
			w.h.UpdateMulti(w.keys, addWord1)
		case opSnapshot:
			w.h.SnapshotAtomic(w.snap)
			w.rd.snapshot(w.snap, &w.t)
		}
		w.t.done[o.class]++
		if timed || traced {
			t1 := time.Now()
			if timed {
				w.lane.mu.Lock()
				w.lane.lat[o.class].observe(t1.Sub(t0))
				w.lane.mu.Unlock()
			}
			if traced {
				w.probe.end(w.h.Process(), w.spans, embeddedSpanNames[o.class], t0, t1)
			}
		}
		if measuring {
			ops++
			if o.class == opMulti {
				w.multis++
			}
		}
	}
}

// embeddedSpanNames names an in-process operation's span after the
// layer boundary the benchmark calls.
var embeddedSpanNames = [nClass]string{"shard.update", "shard.read", "txn.multi", "txn.snapshot_atomic"}
