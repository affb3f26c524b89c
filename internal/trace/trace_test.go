package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// retireOne runs one synthetic span of the given total through t,
// splitting the time over three stages so stage bookkeeping is visible.
func retireOne(t *Tracer, id uint64, total time.Duration) {
	end := time.Now()
	s := Span{TraceID: id, Op: 3, Key: 42, Attempts: 1, Batch: 4,
		Start: end.Add(-total).UnixNano(), Total: uint64(total)}
	s.Stages[StageDecode] = uint64(total / 4)
	s.Stages[StageExecute] = uint64(3*total/4 - total/4)
	s.Stages[StageFlush] = uint64(total - 3*total/4)
	t.Retire(&s, end)
}

func TestRecentRingNewestFirstAndOverwrite(t *testing.T) {
	tr := New(Config{Recent: 4, SlowN: 2})
	for i := 1; i <= 6; i++ {
		retireOne(tr, uint64(i), time.Duration(i)*time.Millisecond)
	}
	got := tr.Recent(nil, 0)
	if len(got) != 4 {
		t.Fatalf("recent returned %d spans, want 4 (ring capacity)", len(got))
	}
	want := []uint64{6, 5, 4, 3} // newest first; 1 and 2 overwritten
	for i, s := range got {
		if s.TraceID != want[i] {
			t.Fatalf("recent[%d].TraceID = %d, want %d (all: %+v)", i, s.TraceID, want[i], got)
		}
	}
}

func TestSlowWindowKeepsSlowest(t *testing.T) {
	tr := New(Config{SlowN: 3, Recent: 8})
	for _, ms := range []int{5, 1, 9, 2, 7, 3} {
		retireOne(tr, uint64(ms), time.Duration(ms)*time.Millisecond)
	}
	got := tr.Slow(nil)
	if len(got) != 3 {
		t.Fatalf("slow window has %d spans, want 3", len(got))
	}
	want := []uint64{9, 7, 5} // slowest first
	for i, s := range got {
		if s.TraceID != want[i] {
			t.Fatalf("slow[%d].TraceID = %d, want %d", i, s.TraceID, want[i])
		}
	}
}

// TestSlowWindowFloorLapses pins that the window's floor does not
// outlive the spans that set it: once they expire, faster spans must
// enter the window instead of being held off by the stale floor.
func TestSlowWindowFloorLapses(t *testing.T) {
	tr := New(Config{SlowN: 2, Recent: 8})
	old := time.Now().Add(-2 * slowWindow)
	tr.mu.Lock()
	for id := uint64(1); id <= 2; id++ {
		tr.offerSlow(&Span{TraceID: id, Total: uint64(5 * time.Millisecond)}, old)
	}
	tr.mu.Unlock()
	for i := range 10 {
		retireOne(tr, uint64(10+i), time.Millisecond)
	}
	if got := tr.Slow(nil); len(got) != 2 {
		t.Fatalf("slow window holds %d spans after the 5 ms spans expired, want 2", len(got))
	}
}

func TestSlowThresholdLogsStructuredLine(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	tr := New(Config{
		SlowN:         4,
		SlowThreshold: 2 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
			mu.Unlock()
		},
	})
	retireOne(tr, 0xabc, time.Millisecond)   // under threshold: no line
	retireOne(tr, 0xdef, 5*time.Millisecond) // over: one line
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1: %q", len(lines), lines)
	}
	for _, want := range []string{"slow-op", "trace=0000000000000def", "total=5ms", "decode=", "execute=", "flush="} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("slow-op line missing %q: %s", want, lines[0])
		}
	}
}

func TestConcurrentRetireAndRead(t *testing.T) {
	// Retirement races /tracez + /slowz readers; under -race this pins
	// that the retired spans are safe to scrape mid-load, and every
	// span read back must be whole: its stages sum to its total, which a
	// copy torn between two spans would not.
	tr := New(Config{Recent: 16, SlowN: 4, SlowThreshold: time.Microsecond,
		Logf: func(string, ...any) {}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := Span{TraceID: uint64(g)<<32 | uint64(i), Total: uint64(i%7+i%11) * 1000}
				s.Stages[StageExecute] = uint64(i%7) * 1000
				s.Stages[StageFlush] = uint64(i%11) * 1000
				tr.Retire(&s, time.Now())
			}
		}(g)
	}
	whole := func(spans []Span) {
		for _, s := range spans {
			var sum uint64
			for _, d := range s.Stages {
				sum += d
			}
			if sum != s.Total {
				t.Errorf("torn span %016x: stage sum %d != total %d", s.TraceID, sum, s.Total)
			}
		}
	}
	for i := 0; i < 200; i++ {
		whole(tr.Recent(nil, 0))
		whole(tr.Slow(nil))
	}
	close(stop)
	wg.Wait()
}

func TestTracezAndSlowzHandlers(t *testing.T) {
	tr := New(Config{Recent: 8, SlowN: 4, SampleN: 64})
	retireOne(tr, 0x1111, 3*time.Millisecond)
	retireOne(tr, 0x2222, time.Millisecond)

	rec := httptest.NewRecorder()
	tr.ServeTracez(rec, httptest.NewRequest("GET", "/tracez", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("/tracez content type %q", ct)
	}
	var page struct {
		Kind    string `json:"kind"`
		SampleN uint64 `json:"sample_n"`
		Spans   []struct {
			TraceID string            `json:"trace_id"`
			TotalNS uint64            `json:"total_ns"`
			Stages  map[string]uint64 `json:"stages_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("/tracez JSON: %v\n%s", err, rec.Body)
	}
	if page.Kind != "recent" || page.SampleN != 64 || len(page.Spans) != 2 {
		t.Fatalf("/tracez page = %+v", page)
	}
	if page.Spans[0].TraceID != "0000000000002222" {
		t.Fatalf("/tracez newest first: %+v", page.Spans[0])
	}
	var sum uint64
	for _, d := range page.Spans[0].Stages {
		sum += d
	}
	if len(page.Spans[0].Stages) != NumStages || sum != page.Spans[0].TotalNS {
		t.Fatalf("stage decomposition: stages=%v total=%d", page.Spans[0].Stages, page.Spans[0].TotalNS)
	}

	rec = httptest.NewRecorder()
	tr.ServeSlowz(rec, httptest.NewRequest("GET", "/slowz?format=text", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "slow traces") || !strings.Contains(body, "0000000000001111") {
		t.Fatalf("/slowz text body:\n%s", body)
	}
	if strings.Contains(body, "<") {
		t.Fatalf("/slowz text output contains HTML: %s", body)
	}
	if !strings.Contains(body, "sample=1/64  slow-threshold=off  retired=2\n") {
		t.Fatalf("/slowz text header:\n%s", body)
	}

	// A 20-digit key, a 123.456789ms stage and a 1.123456789s total
	// keep every column under its header.
	end := time.Now()
	wide := Span{TraceID: 0x3333, Key: math.MaxUint64, Start: end.Add(-time.Second).UnixNano(), Total: 1123456789}
	wide.Stages[StageFsync], wide.Stages[StageFlush] = 123456789, 1000000000
	tr.Retire(&wide, end)
	rec = httptest.NewRecorder()
	tr.ServeSlowz(rec, httptest.NewRequest("GET", "/slowz?format=text", nil))
	bars := func(line string) (at []int) {
		for i, r := range []rune(line) {
			if r == '|' {
				at = append(at, i)
			}
		}
		return at
	}
	lines := strings.Split(rec.Body.String(), "\n")
	row := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, "18446744073709551615") })
	if row < 0 || !slices.Equal(bars(lines[row]), bars(lines[1])) {
		t.Fatalf("/slowz text: the wide span's columns are not under the header's:\n%s", rec.Body)
	}

	// With sampling and the threshold off, the header says so in words.
	rec = httptest.NewRecorder()
	New(Config{}).ServeTracez(rec, httptest.NewRequest("GET", "/tracez?format=text", nil))
	if body := rec.Body.String(); !strings.Contains(body, "sample=off  slow-threshold=off  retired=0\n") {
		t.Fatalf("/tracez text header with tracing off:\n%s", body)
	}
}

func TestRetireDoesNotAllocate(t *testing.T) {
	tr := New(Config{Recent: 8, SlowN: 4})
	end := time.Now()
	s := Span{TraceID: 7, Total: 2000}
	s.Stages[StageExecute], s.Stages[StageFlush] = 1000, 1000
	allocs := testing.AllocsPerRun(200, func() {
		tr.Retire(&s, end)
	})
	if allocs != 0 {
		t.Fatalf("Retire allocates %.1f/op, want 0", allocs)
	}
}

// TestNewIDDiffersAcrossProcesses runs the test binary twice as a child
// and requires the two processes' first ids to differ: a generator that
// is not seeded per process hands every process the same sequence.
func TestNewIDDiffersAcrossProcesses(t *testing.T) {
	if os.Getenv("TRACE_NEWID_CHILD") == "1" {
		fmt.Printf("newid=%d\n", NewID())
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`newid=(\d+)`)
	var ids [2]string
	for i := range ids {
		cmd := exec.Command(exe, "-test.run=^TestNewIDDiffersAcrossProcesses$")
		cmd.Env = append(os.Environ(), "TRACE_NEWID_CHILD=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		m := re.FindSubmatch(out)
		if m == nil {
			t.Fatalf("child %d printed no id:\n%s", i, out)
		}
		ids[i] = string(m[1])
	}
	if ids[0] == ids[1] {
		t.Fatalf("two processes drew the same first trace id %s", ids[0])
	}
}
