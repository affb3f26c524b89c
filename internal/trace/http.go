package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// SpanJSON is the JSON shape of one span in /tracez and /slowz.
type SpanJSON struct {
	TraceID  string            `json:"trace_id"` // %016x, grep-able against slow-op log lines
	Op       uint8             `json:"op"`
	Key      uint64            `json:"key"`
	Sampled  bool              `json:"sampled"`
	Err      bool              `json:"err,omitempty"`
	Attempts uint32            `json:"attempts"`
	Batch    uint32            `json:"batch"`
	Start    string            `json:"start"` // RFC3339Nano wall time
	TotalNS  uint64            `json:"total_ns"`
	Stages   map[string]uint64 `json:"stages_ns"`
}

// pageJSON is the top-level /tracez | /slowz JSON document.
type pageJSON struct {
	Kind          string     `json:"kind"` // "recent" or "slow"
	SampleN       uint64     `json:"sample_n"`
	SlowThreshold uint64     `json:"slow_threshold_ns"`
	Retired       uint64     `json:"retired"`
	Spans         []SpanJSON `json:"spans"`
}

func spanJSON(s *Span) SpanJSON {
	stages := make(map[string]uint64, NumStages)
	for i := 0; i < NumStages; i++ {
		stages[StageName(Stage(i))] = s.Stages[i]
	}
	return SpanJSON{
		TraceID:  fmt.Sprintf("%016x", s.TraceID),
		Op:       s.Op,
		Key:      s.Key,
		Sampled:  s.Sampled,
		Err:      s.Err,
		Attempts: s.Attempts,
		Batch:    s.Batch,
		Start:    time.Unix(0, s.Start).UTC().Format(time.RFC3339Nano),
		TotalNS:  s.Total,
		Stages:   stages,
	}
}

// serve renders spans as JSON (the default) or, with ?format=text, as
// an aligned HTML-free text table for humans on a terminal.
func (t *Tracer) serve(w http.ResponseWriter, r *http.Request, kind string, spans []Span) {
	st := t.Stats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		sample, slowThr := "off", "off"
		if t.sampleN > 0 {
			sample = fmt.Sprintf("1/%d", t.sampleN)
		}
		if t.slowNS > 0 {
			slowThr = time.Duration(t.slowNS).String()
		}
		fmt.Fprintf(w, "%s traces: %d span(s)  sample=%s  slow-threshold=%s  retired=%d\n",
			kind, len(spans), sample, slowThr, st.Retired)
		// The key column fits 2^64-1 and each duration column 12
		// characters, up to 9.999999999s, so the rows stay aligned.
		fmt.Fprintf(w, "%-16s %-4s %-20s %-7s %12s | %12s %12s %12s %12s %12s %12s %12s | %8s %5s\n",
			"trace", "op", "key", "kind", "total",
			"decode", "queue", "acquire", "execute", "persist", "fsync", "flush",
			"attempts", "batch")
		for i := range spans {
			s := &spans[i]
			knd := "client"
			if s.Sampled {
				knd = "sample"
			}
			fmt.Fprintf(w, "%016x %-4d %-20d %-7s %12s | %12s %12s %12s %12s %12s %12s %12s | %8d %5d\n",
				s.TraceID, s.Op, s.Key, knd, time.Duration(s.Total),
				time.Duration(s.Stages[StageDecode]), time.Duration(s.Stages[StageQueue]),
				time.Duration(s.Stages[StageAcquire]), time.Duration(s.Stages[StageExecute]),
				time.Duration(s.Stages[StagePersist]), time.Duration(s.Stages[StageFsync]),
				time.Duration(s.Stages[StageFlush]), s.Attempts, s.Batch)
		}
		return
	}
	page := pageJSON{
		Kind:          kind,
		SampleN:       t.sampleN,
		SlowThreshold: t.slowNS,
		Retired:       st.Retired,
		Spans:         make([]SpanJSON, 0, len(spans)),
	}
	for i := range spans {
		page.Spans = append(page.Spans, spanJSON(&spans[i]))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(page)
}

// ServeTracez handles /tracez: the most recently retired spans, newest
// first. ?format=text renders a terminal table; ?max=N caps the count.
func (t *Tracer) ServeTracez(w http.ResponseWriter, r *http.Request) {
	max := 0
	fmt.Sscanf(r.URL.Query().Get("max"), "%d", &max)
	t.serve(w, r, "recent", t.Recent(nil, max))
}

// ServeSlowz handles /slowz: the slowest spans of the sliding window,
// slowest first, with the full stage breakdown.
func (t *Tracer) ServeSlowz(w http.ResponseWriter, r *http.Request) {
	t.serve(w, r, "slow", t.Slow(nil))
}
