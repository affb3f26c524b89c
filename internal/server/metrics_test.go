package server

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"mwllsc/internal/obs"
	"mwllsc/internal/shard"
)

// TestCountersMapToStatsAndMetrics pins the two hand-written maps from
// the striped counters to their surfaces: Server.Stats, which fills the
// Stats opcode's words, and RegisterMetrics, which names the llscd_*
// series that /metrics and /statsz render. Counter i carries its own
// amount, i+1, so a field or a metric that reads another counter's
// index reads the wrong amount.
func TestCountersMapToStatsAndMetrics(t *testing.T) {
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	for i := 0; i < numCounters; i++ {
		s.ctrs.Add(i%s.ctrs.Stripes(), i, uint64(i+1))
	}
	st := s.Stats()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	rendered := make(map[string]string)
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			rendered[f[0]] = f[1]
		}
	}

	cases := []struct {
		i      int
		field  string
		got    uint64
		metric string
	}{
		{cConnsTotal, "ConnsTotal", st.ConnsTotal, "llscd_connections_total"},
		{cConnsOpen, "ConnsOpen", st.ConnsOpen, "llscd_connections_open"},
		{cReqs, "Reqs", st.Reqs, "llscd_requests_total"},
		{cUpdates, "Updates", st.Updates, "llscd_updates_total"},
		{cReads, "Reads", st.Reads, "llscd_reads_total"},
		{cSnapshots, "Snapshots", st.Snapshots, "llscd_snapshots_total"},
		{cMultis, "Multis", st.Multis, "llscd_multis_total"},
		{cBatches, "Batches", st.Batches, "llscd_batches_total"},
		{cBadReqs, "BadReqs", st.BadReqs, "llscd_bad_requests_total"},
		{cPersistErrs, "PersistErrs", st.PersistErrs, "llscd_persist_errors_total"},
		{cConnsShed, "ShedConns", st.ShedConns, "llscd_conns_shed_total"},
		{cBusy, "BusyRejects", st.BusyRejects, "llscd_busy_rejects_total"},
		{cEvictions, "Evictions", st.Evictions, "llscd_evictions_total"},
		{cIdleClosed, "IdleCloses", st.IdleCloses, "llscd_idle_closes_total"},
		{cDegraded, "DegradedRejects", st.DegradedRejects, "llscd_degraded_rejects_total"},
	}
	var seen [numCounters]bool
	for _, c := range cases {
		seen[c.i] = true
		want := uint64(c.i + 1)
		if c.got != want {
			t.Errorf("Stats().%s = %d, want %d (counter %d)", c.field, c.got, want, c.i)
		}
		if got := rendered[c.metric]; got != strconv.FormatUint(want, 10) {
			t.Errorf("%s renders %q, want %d (counter %d)", c.metric, got, want, c.i)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("counter %d has no Stats field or metric in this table", i)
		}
	}
}
