package bench

import (
	"fmt"

	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
)

// E14Instrumentation prices head sampling on the serving hot path: the
// same closed-loop loopback Add load, run against a fresh server in each
// of three arms —
//
//	idle:  sampling off, the daemon's default: only client-flagged
//	       requests are traced, and this load flags none
//	1/64:  head sampling at -trace-sample 64, the suggested production
//	       setting; every 64th request pays the full span path
//	all:   -trace-sample 1, every request traced — the worst case,
//	       what a debugging session costs
//
// Every server keeps its histograms and tracer, so the layers that are
// always on run in every arm. What they cost is gated end to end by
// cmd/llscperf's served workloads, which run them too, and the E13 gate
// holds them at zero allocations; the 1/64 and all rows exist so that
// turning sampling up is a priced decision, not a guess.
func E14Instrumentation(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		k        = 16
		w        = 2
		maxBatch = 64
		conns    = 4
		perConn  = 8
	)

	t := &Table{
		ID: "e14",
		Title: fmt.Sprintf("E14: head-sampling cost on the serving path (K=%d, W=%d, conns=%d, inflight=%d, %v/arm)",
			k, w, conns, conns*perConn, o.Dur),
		Note: "closed-loop loopback Add load; idle = sampling off (daemon default); " +
			"1/64 = -trace-sample 64; all = every request traced. Histograms, tracer and " +
			"striped counters run in every arm. srv p99 is the server's own batch-execute histogram.",
		Cols: []string{"arm", "ops/s", "p50 us", "p99 us", "srv p99 us", "spans/s"},
	}
	arms := []struct {
		name    string
		sampleN uint64
	}{
		{"idle", 0},
		{"1/64", 64},
		{"all", 1},
	}
	for _, arm := range arms {
		// A fresh server per arm: no state carries from one arm to the next.
		err := func() error {
			m, err := shard.NewMap(k, conns+2, w)
			if err != nil {
				return err
			}
			tr := trace.New(trace.Config{SampleN: arm.sampleN})
			s := server.New(m, server.WithMaxBatch(maxBatch), server.WithTracer(tr))
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			go s.Serve()
			defer s.Close()
			res, err := NetLoadClosedLoop(addr.String(), conns, conns*perConn, w, o.Dur, 0)
			if err != nil {
				return err
			}
			// Retired spans over the window, normalized the same way as
			// ops/s (the window dominates the elapsed time).
			spansPerSec := float64(tr.Stats().Retired) * res.OpsPerSec / float64(res.Ops)
			t.AddRow(arm.name, res.OpsPerSec,
				float64(res.P50.Nanoseconds())/1e3, float64(res.P99.Nanoseconds())/1e3,
				float64(res.SrvP99.Nanoseconds())/1e3, spansPerSec)
			return nil
		}()
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", arm.name, err)
		}
	}
	return t, nil
}
