package core

import "sync/atomic"

// Stats counts algorithm events across all processes of one Object, or of
// every Object it is passed to; pass a Stats to New to enable. The zero
// value is ready to use. All counters are safe for concurrent use and for
// reading while the object is in use. Stats quantify the helping mechanism
// (paper §2.2-§2.3) for experiment E4.
//
// Process p counts in stripe p mod statsStripes, each stripe on cache lines
// of its own, so processes counting their LLs and SCs do not pass one line
// between them; Snapshot sums the stripes.
type Stats struct {
	stripes [statsStripes]statsStripe
}

// statsStripes is how many stripes a Stats counts in.
const statsStripes = 16

// statsStripe is one stripe's counters, padded to 128 bytes: two stripes'
// counters are 80 bytes apart, so they never share a 64-byte cache line,
// however the Stats is aligned.
type statsStripe struct {
	n [nStats]atomic.Int64
	_ [128 - nStats*8]byte
}

// stat names one counter of a stripe; StatsSnapshot documents each.
type stat uint8

const (
	statLL stat = iota
	statLLHelped
	statSC
	statSCSuccess
	statHandoff
	statBankFix
	nStats
)

// add counts one event of kind k by process p.
func (s *Stats) add(p int, k stat) {
	s.stripes[uint(p)%statsStripes].n[k].Add(1)
}

// Snapshot returns the counters summed over all processes.
func (s *Stats) Snapshot() StatsSnapshot {
	var t [nStats]int64
	for i := range s.stripes {
		for k := range t {
			t[k] += s.stripes[i].n[k].Load()
		}
	}
	return StatsSnapshot{
		LLTotal:   t[statLL],
		LLHelped:  t[statLLHelped],
		SCTotal:   t[statSC],
		SCSuccess: t[statSCSuccess],
		Handoffs:  t[statHandoff],
		BankFixes: t[statBankFix],
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	// LLTotal counts completed LL operations.
	LLTotal int64
	// LLHelped counts LL operations that found themselves helped at
	// Line 4, i.e. at least 2N successful SCs overlapped their first
	// buffer read.
	LLHelped int64
	// SCTotal counts completed SC operations (successful or not).
	SCTotal int64
	// SCSuccess counts successful SC operations.
	SCSuccess int64
	// Handoffs counts successful buffer handoffs at Line 15 (an SC
	// donating its buffer to an announced LL).
	Handoffs int64
	// BankFixes counts Line 13 executions (an SC repairing a Bank entry
	// its predecessor had not yet recorded).
	BankFixes int64
}

// HelpedFraction returns LLHelped/LLTotal, or 0 when no LLs completed.
func (s StatsSnapshot) HelpedFraction() float64 {
	if s.LLTotal == 0 {
		return 0
	}
	return float64(s.LLHelped) / float64(s.LLTotal)
}

// SuccessFraction returns SCSuccess/SCTotal, or 0 when no SCs completed.
func (s StatsSnapshot) SuccessFraction() float64 {
	if s.SCTotal == 0 {
		return 0
	}
	return float64(s.SCSuccess) / float64(s.SCTotal)
}
