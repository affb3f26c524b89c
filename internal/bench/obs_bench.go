package bench

import (
	"fmt"

	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
)

// E14Instrumentation prices the observability and tracing layers on the
// serving hot path: the same closed-loop loopback Add load, run against
// a fresh server in each of five configurations —
//
//	bare:    no latency histograms, no tracer
//	metrics: latency histograms on
//	idle:    histograms plus a tracer with sampling off — the daemon's
//	         default; the delta vs metrics is one time.Now() per batch
//	         head, and the E13 gate holds this configuration at zero
//	         allocations
//	1/64:    head sampling at -trace-sample 64, the suggested production
//	         setting; every 64th request pays the full span path
//	all:     -trace-sample 1, every request traced — the worst case,
//	         what a debugging session costs
//
// The striped counters run in every arm: they replaced the shared
// atomics outright. docs/OBSERVABILITY.md records the budget: metrics
// must hold within 3% of bare, and idle within 3% of metrics; 1/64 and
// all are allowed to cost, and their rows exist so the cost is a
// number, not a guess.
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
		Title: fmt.Sprintf("E14: instrumentation overhead on the serving path (K=%d, W=%d, conns=%d, inflight=%d, %v/arm)",
			k, w, conns, conns*perConn, o.Dur),
		Note: "closed-loop loopback Add load; bare = no histograms, no tracer; metrics = histograms on; " +
			"idle = histograms + tracer with sampling off (daemon default); 1/64 = -trace-sample 64; " +
			"all = every request traced. Striped counters run in every arm. " +
			"srv p99 is the server's own batch-execute histogram (0 in bare).",
		Cols: []string{"arm", "ops/s", "p50 us", "p99 us", "srv p99 us", "spans/s"},
	}
	arms := []struct {
		name    string
		metrics bool
		tracer  bool
		sampleN uint64
	}{
		{"bare", false, false, 0},
		{"metrics", true, false, 0},
		{"idle", true, true, 0},
		{"1/64", true, true, 64},
		{"all", true, true, 1},
	}
	for _, arm := range arms {
		// A fresh server per arm: no state carries from one arm to the next.
		err := func() error {
			m, err := shard.NewMap(k, conns+2, w)
			if err != nil {
				return err
			}
			opts := []server.Option{server.WithMaxBatch(maxBatch)}
			if arm.metrics {
				opts = append(opts, server.WithMetrics(server.NewMetrics(m.N())))
			}
			var tr *trace.Tracer
			if arm.tracer {
				tr = trace.New(trace.Config{SampleN: arm.sampleN})
				opts = append(opts, server.WithTracer(tr))
			}
			s := server.New(m, opts...)
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
			spansPerSec := 0.0
			if tr != nil {
				// Retired spans over the window, normalized the same way
				// as ops/s (the window dominates the elapsed time).
				spansPerSec = float64(tr.Stats().Retired) * res.OpsPerSec / float64(res.Ops)
			}
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
