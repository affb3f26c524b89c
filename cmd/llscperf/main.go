// Command llscperf is the repository's benchmark. From one process it
// drives the whole mwllsc stack — LL/SC core, shard map, cross-shard
// transactions, wire codec, server, persistence and client — through four
// fixed workloads, checks the results for correctness, and prints every
// metric as
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// followed by one JSON line with the metrics named in BENCHMARK.json.
// Untraced runs print the end-to-end metrics; traced runs add the
// per-layer metrics and write the recorded spans to a file. See README.md
// for the workloads, the metric catalog and how the bounds were sized.
//
// Usage:
//
//	llscperf [-workload all|embedded|rpc|pipelined|durable] [-seed 1]
//	         [-seconds 15] [-trace 0|1|FILE] [-json FILE]
//
// -trace 1 writes spans to spans.json; -trace FILE writes them to FILE.
// The exit status is 1 when a correctness check fails and 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings, shared by every workload.
type config struct {
	seed   uint64
	window time.Duration // measured window per workload
	warmup time.Duration // unmeasured load before the window
	probe  time.Duration // one max-rate search step (pipelined)
	procs  int           // GOMAXPROCS, goroutine and connection cap
	search bool          // run the pipelined max-rate search
}

// minSamples is the fewest timed samples an operation class needs in the
// window: with fewer its latencies are a violation, not a number. The
// smoke test lowers it for its 200 ms windows.
var minSamples uint64 = 1000

// workload is one fixed traffic shape. run measures it once; with p
// non-nil the run is traced and also fills in the per-layer metrics.
type workload struct {
	name string
	mix  mix
	run  func(cfg *config, w *workload, p *probes) (*measure, error)
}

var workloads = []workload{
	{"embedded", mix{75, 20, 4, 1}, runEmbedded},
	{"rpc", mix{90, 10, 0, 0}, runRPC},
	{"pipelined", mix{70, 20, 8, 2}, runPipelined},
	{"durable", mix{80, 20, 0, 0}, runDurable},
}

// jsonEndToEnd and jsonLayers are the metrics the final JSON line
// carries, untraced and traced: the ones BENCHMARK.json names, which
// every workload reports. The printed lines carry more, among them the
// latencies and CPU per operation, which vary too much from run to run
// on a shared 2-vCPU host to be held to a bound (see README.md).
var (
	jsonEndToEnd = []string{"setup_s", "ops_s", "heap_mib"}
	jsonLayers   = []string{
		"core.ll_ns", "core.sc_ns", "core.vl_ns", "core.sc_success_frac", "core.llsc_per_op",
		"shard.update_ns", "shard.read_ns", "shard.acquire_release_ns",
		"txn.multi_ns", "txn.snapshot_atomic_ns",
		"wire.req_encode_ns", "wire.req_decode_ns", "wire.resp_encode_ns", "wire.resp_decode_ns",
		"wire.req_bytes", "wire.resp_bytes",
		"persist.append_ns",
		"loadgen.trace_overhead_frac",
	}
)

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's entry in the -json file.
type report struct {
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	Metrics    []metric `json:"metrics"`
	Violations []string `json:"violations,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llscperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run: all, embedded, rpc, pipelined or durable")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed generates the same operations")
		seconds  = fs.Float64("seconds", 15, "measured window per workload, in seconds")
		traceArg = fs.String("trace", "0", "0: untraced; 1: traced, spans to spans.json; FILE: traced, spans to FILE")
		jsonPath = fs.String("json", "", "also write every printed metric to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "llscperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "llscperf: -seconds must be positive")
		return 2
	}
	spansPath := ""
	switch *traceArg {
	case "0":
	case "1":
		spansPath = "spans.json"
	default:
		spansPath = *traceArg
	}
	var selected []*workload
	for i := range workloads {
		if *name == "all" || *name == workloads[i].name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "llscperf: unknown workload %q\n", *name)
		return 2
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	window := time.Duration(*seconds * float64(time.Second))
	cfg := &config{
		seed:   *seed,
		window: window,
		warmup: min(2*time.Second, window/5),
		probe:  min(2*time.Second, window/5),
		procs:  procs,
		// A traced invocation reports per-layer metrics, not ops_s, so
		// its untraced reference run skips the search.
		search: spansPath == "",
	}
	fmt.Fprintf(stdout, "llscperf: seed=%d window=%v warmup=%v procs=%d traced=%v\n",
		cfg.seed, cfg.window, cfg.warmup, procs, spansPath != "")

	var spans *spanLog
	if spansPath != "" {
		spans = newSpanLog()
	}
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var reports []report
	for _, w := range selected {
		rep, ok := runWorkload(w, cfg, spans, stdout, stderr)
		if !ok {
			return 1
		}
		res.Correct = res.Correct && len(rep.Violations) == 0
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		keep := jsonEndToEnd
		if spans != nil {
			keep = jsonLayers
		}
		for _, m := range rep.Metrics {
			if slices.Contains(keep, m.Name) {
				key := m.Name
				if len(selected) > 1 {
					key = w.name + "." + m.Name
				}
				res.Metrics[key] = jsonMetric{m.Value, m.Unit}
			}
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(stdout, "%s VIOLATION %s\n", w.name, v)
		}
		reports = append(reports, rep)
	}
	if spans != nil {
		if err := spans.write(spansPath); err != nil {
			fmt.Fprintf(stderr, "llscperf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "llscperf: wrote %d spans to %s\n", spans.len(), spansPath)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(map[string]any{
			"seed": cfg.seed, "window_s": cfg.window.Seconds(), "procs": procs,
			"correct": res.Correct, "workloads": reports,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "llscperf: writing %s: %v\n", *jsonPath, err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "llscperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload — untraced, or with spans non-nil an
// untraced reference run followed by the traced run — prints its metrics
// and returns its report. ok is false when the workload could not run.
func runWorkload(w *workload, cfg *config, spans *spanLog, stdout, stderr io.Writer) (rep report, ok bool) {
	m, err := w.run(cfg, w, nil)
	if err != nil {
		fmt.Fprintf(stderr, "llscperf: %s: %v\n", w.name, err)
		return rep, false
	}
	metrics, errs := endToEnd(w, m)
	all, dropped := m.tally, m.dropped
	errs = append(errs, m.checkErrs...)
	if spans != nil {
		p := newProbes(w.name, spans)
		mt, err := w.run(cfg, w, p)
		if err != nil {
			fmt.Fprintf(stderr, "llscperf: %s traced: %v\n", w.name, err)
			return rep, false
		}
		errs = append(errs, mt.checkErrs...)
		all.merge(&mt.tally)
		dropped += mt.dropped
		metrics = append(metrics, mt.layers...)
		metrics = append(metrics, metric{"loadgen.trace_overhead_frac", mt.cpuPerOp()/m.cpuPerOp() - 1, "frac", mt.windowOps})
	}
	errs = append(errs, all.violations...)
	if n := all.nViolations; n > uint64(len(all.violations)) {
		errs = append(errs, fmt.Sprintf("%d more violations", n-uint64(len(all.violations))))
	}
	for _, mt := range metrics {
		fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", w.name, mt.Name, strconv.FormatFloat(mt.Value, 'f', -1, 64), mt.Unit, mt.N)
	}
	return report{
		Workload:   w.name,
		Traced:     spans != nil,
		Attempted:  sum(all.attempted) + dropped,
		Failed:     sum(all.failed) + dropped,
		Metrics:    metrics,
		Violations: errs,
	}, true
}
