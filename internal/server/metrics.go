package server

import (
	"mwllsc/internal/obs"
	"mwllsc/internal/wire"
)

// Server counter indices within Server.ctrs — one striped bank
// replaces the former per-field shared atomics, so per-request bumps
// land in the cache lines of the registry slot the batch executor
// already holds (see internal/obs). The counters catalog below names
// each one's surfaces.
const (
	cConnsTotal = iota
	cConnsOpen
	cReqs
	cUpdates
	cReads
	cSnapshots
	cMultis
	cBatches
	cBadReqs
	cPersistErrs
	// Overload-control counters (wire stats words 17-21). Shed, idle
	// and eviction events happen with no registry slot in hand and are
	// bumped on stripe 0; busy and degraded rejections follow the path
	// that produced them (stripe 0 for whole-batch busy rejects, the
	// batch's slot stripe for per-update degraded rejects).
	cConnsShed
	cBusy
	cEvictions
	cIdleClosed
	cDegraded
	numCounters
)

// counters is the one catalog of the striped counters: each one's
// llscd_* series and help text, which RegisterMetrics registers as a
// counter or, when gauge is set, a gauge, and the address of the Stats
// word that Server.Stats fills from it.
var counters = [numCounters]struct {
	name, help string
	gauge      bool
	field      func(st *wire.ServerStats) *uint64
}{
	cConnsTotal: {"llscd_connections_total", "Connections accepted since start.", false,
		func(st *wire.ServerStats) *uint64 { return &st.ConnsTotal }},
	cConnsOpen: {"llscd_connections_open", "Connections currently open.", true,
		func(st *wire.ServerStats) *uint64 { return &st.ConnsOpen }},
	cReqs: {"llscd_requests_total", "Requests executed, all opcodes.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Reqs }},
	cUpdates: {"llscd_updates_total", "Update requests executed.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Updates }},
	cReads: {"llscd_reads_total", "Read requests executed.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Reads }},
	cSnapshots: {"llscd_snapshots_total", "Snapshot and SnapshotAtomic requests executed.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Snapshots }},
	cMultis: {"llscd_multis_total", "UpdateMulti requests executed.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Multis }},
	cBatches: {"llscd_batches_total", "Handle-acquire batches executed.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Batches }},
	cBadReqs: {"llscd_bad_requests_total", "Requests rejected with a non-OK status.", false,
		func(st *wire.ServerStats) *uint64 { return &st.BadReqs }},
	cPersistErrs: {"llscd_persist_errors_total", "Failed persistence rounds (append or fsync).", false,
		func(st *wire.ServerStats) *uint64 { return &st.PersistErrs }},
	cConnsShed: {"llscd_conns_shed_total", "Connections closed at accept by the max-conns cap.", false,
		func(st *wire.ServerStats) *uint64 { return &st.ShedConns }},
	cBusy: {"llscd_busy_rejects_total", "Requests rejected StatusBusy by admission control.", false,
		func(st *wire.ServerStats) *uint64 { return &st.BusyRejects }},
	cEvictions: {"llscd_evictions_total", "Connections evicted for stalling on their responses.", false,
		func(st *wire.ServerStats) *uint64 { return &st.Evictions }},
	cIdleClosed: {"llscd_idle_closes_total", "Connections closed by the read-idle timeout.", false,
		func(st *wire.ServerStats) *uint64 { return &st.IdleCloses }},
	cDegraded: {"llscd_degraded_rejects_total", "Updates rejected StatusUnavailable in disk-sick degraded mode.", false,
		func(st *wire.ServerStats) *uint64 { return &st.DegradedRejects }},
}

// Metrics is the server's histogram set. Every server records one, as
// it does its counters: New builds it unless WithMetrics supplies one.
type Metrics struct {
	// Service records per-request service latency in nanoseconds: the
	// batch-execute window (handle acquisition through durability),
	// attributed via ObserveN to every request in the batch, so the
	// whole batch costs one time.Now pair instead of two per request.
	Service *obs.Histogram
	// Batch records the size of each executed batch — the live view of
	// how well pipelining amortizes registry acquisition.
	Batch *obs.Histogram
	// Attempts records the attempt count of each Update/UpdateMulti;
	// values above 1 are the wire-visible face of LL/SC contention.
	Attempts *obs.Histogram
}

// NewMetrics builds a Metrics set striped for a map with n registry
// slots (pass Map.N()).
func NewMetrics(n int) *Metrics {
	return &Metrics{
		Service:  obs.NewHistogram(n),
		Batch:    obs.NewHistogram(n),
		Attempts: obs.NewHistogram(n),
	}
}

// WithMetrics replaces the histogram set New builds, NewMetrics(m.N())
// for the served map m; nil keeps it. The stripe count should match the
// served map's slot count.
func WithMetrics(m *Metrics) Option {
	return func(s *Server) { s.metrics = m }
}

// RegisterMetrics registers the server's full metric surface on reg
// under llscd_* names: the striped counters of the counters catalog,
// the histogram set, map geometry, registry-slot contention, the txn
// engine's helping/retry counters, the tracer's span count, and — when
// a durability store is attached — the persistence counters and
// append/fsync latency histograms. The admin plane's /metrics and
// /statsz render exactly this registry, so their totals match the Stats
// wire opcode by construction: both read the same striped banks through
// the same catalog.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	for i, c := range counters {
		read := func() uint64 { return s.ctrs.Sum(i) }
		if c.gauge {
			reg.Gauge(c.name, c.help, read)
		} else {
			reg.Counter(c.name, c.help, read)
		}
	}

	reg.Gauge("llscd_shards", "Map geometry: shard count K.", func() uint64 { return uint64(s.m.Shards()) })
	reg.Gauge("llscd_slots", "Map geometry: registry process slots N.", func() uint64 { return uint64(s.m.N()) })
	reg.Gauge("llscd_words", "Map geometry: words per key W.", func() uint64 { return uint64(s.m.W()) })

	reg.Counter("llscd_slot_acquires_total", "Registry slot acquisitions.",
		func() uint64 { return uint64(s.m.Registry().Stats().Acquires) })
	reg.Counter("llscd_slot_waits_total", "Slot acquisitions that had to wait for a free slot.",
		func() uint64 { return uint64(s.m.Registry().Stats().Waited) })
	reg.Counter("llscd_txn_helps_total", "Lock references found in the way and helped to completion.",
		func() uint64 { return s.m.TxnStats().Helps })
	reg.Counter("llscd_txn_retries_total", "Update attempts rerun after a conflicting commit.",
		func() uint64 { return s.m.TxnStats().Retries })

	reg.Histogram("llscd_request_latency_seconds",
		"Per-request service latency: the batch-execute window, handle acquisition through durability.",
		1e-9, s.metrics.Service)
	reg.Histogram("llscd_batch_size", "Requests per executed batch.", 1, s.metrics.Batch)
	reg.Histogram("llscd_update_attempts", "LL/SC attempts per Update/UpdateMulti (1 = no conflict).",
		1, s.metrics.Attempts)
	reg.Counter("llscd_trace_spans_total", "Trace spans completed and retired into the rings.",
		func() uint64 { return s.tracer.Stats().Retired })
	if s.persist != nil {
		st := s.persist
		reg.Counter("llscd_persist_records_total", "Records appended to the durability log.",
			func() uint64 { return st.Stats().Records })
		reg.Counter("llscd_persist_bytes_total", "Log bytes written.",
			func() uint64 { return st.Stats().Bytes })
		reg.Counter("llscd_persist_syncs_total", "Group-commit fsync rounds completed.",
			func() uint64 { return st.Stats().Syncs })
		reg.Counter("llscd_persist_checkpoints_total", "Checkpoints written.",
			func() uint64 { return st.Stats().Checkpoints })
		reg.Gauge("llscd_persist_seq", "Current commit sequence number.",
			func() uint64 { return st.Stats().Seq })
		reg.Histogram("llscd_persist_append_seconds", "Durability log append latency: one write syscall per batch.",
			1e-9, st.AppendHist())
		reg.Histogram("llscd_persist_fsync_seconds", "Group-commit fsync round latency.",
			1e-9, st.SyncHist())
	}
}
