package bench

import (
	"fmt"
	"os"

	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
)

// E12Durability builds the durability-cost table: closed-loop Add
// throughput and latency over loopback TCP with the persistence layer
// at each fsync policy, against the in-memory server as baseline. The
// spread between rows prices the append-only log itself (memory →
// none), the background fsync (none → everysec) and group-commit
// acknowledgement gating (everysec → always); log MiB and syncs show
// how much disk work bought each row's guarantee.
func E12Durability(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		k        = 16
		w        = 2
		maxBatch = 64
		conns    = 2
		workers  = 32
	)
	t := &Table{
		ID: "e12",
		Title: fmt.Sprintf("E12: durability cost over loopback TCP (K=%d shards, W=%d, maxbatch=%d, conns=%d, inflight=%d, %v/point)",
			k, w, maxBatch, conns, workers, o.Dur),
		Note: "closed-loop Add load (NetLoadClosedLoop); memory = no persistence; " +
			"none/everysec/always = append-only log with that fsync policy (always gates each ack on a " +
			"group-commit fsync); log MiB / syncs = disk work during the measurement window.",
		Cols: []string{"durability", "ops/s", "p50 us", "p99 us", "avg batch", "log MiB", "syncs"},
	}

	type row struct {
		name    string
		durable bool
		policy  persist.Policy
	}
	rows := []row{
		{"memory", false, 0},
		{"none", true, persist.SyncNone},
		{"everysec", true, persist.SyncEverySec},
		{"always", true, persist.SyncAlways},
	}
	for _, r := range rows {
		if err := e12Point(t, r.name, r.durable, r.policy, k, w, maxBatch, conns, workers, o); err != nil {
			return nil, fmt.Errorf("E12 %s: %w", r.name, err)
		}
	}
	return t, nil
}

// e12Point measures one durability configuration on a fresh server and
// appends its row.
func e12Point(t *Table, name string, durable bool, policy persist.Policy, k, w, maxBatch, conns, workers int, o Options) error {
	m, err := shard.NewMap(k, conns+2, w)
	if err != nil {
		return err
	}
	opts := []server.Option{server.WithMaxBatch(maxBatch)}
	var st *persist.Store
	if durable {
		dir, err := os.MkdirTemp("", "llscbench-e12-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, _, err = persist.Open(dir, m, persist.Options{Policy: policy})
		if err != nil {
			return err
		}
		defer st.Close()
		opts = append(opts, server.WithPersist(st))
	}
	s := server.New(m, opts...)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go s.Serve()
	defer s.Close()

	res, err := NetLoadClosedLoop(addr.String(), conns, workers, w, o.Dur, 0)
	if err != nil {
		return err
	}
	logMiB, syncs := "-", "-"
	if st != nil {
		ps := st.Stats()
		logMiB = fmt.Sprintf("%.1f", float64(ps.Bytes)/(1<<20))
		syncs = fmt.Sprintf("%d", ps.Syncs)
	}
	t.AddRow(name, res.OpsPerSec,
		float64(res.P50.Nanoseconds())/1e3, float64(res.P99.Nanoseconds())/1e3,
		res.AvgBatch, logMiB, syncs)
	return nil
}
