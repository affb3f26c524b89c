// Command llscbench regenerates the experiment tables: the empirical
// counterparts of the paper's Theorem 1 claims (E1-E7), the scaling
// experiments for the sharded map and handle registry (E8-E9), the
// cross-shard transaction experiment (E10), the durability-cost
// experiment across fsync policies (E12), the hot-path allocation table
// (E13, held at zero by TestE13AllocsZero), the instrumentation-overhead
// experiment (E14: no histograms vs histograms vs idle tracer vs 1-in-64
// sampling vs every request traced) and the overload-control experiment
// (E16: goodput under 2x open-loop offered load with admission control
// off vs on). Ids missing from the sequence belong to retired
// experiments: cmd/llscperf measures the served round trip, and E14
// carries the tracing arms. The tables are not gated; cmd/llscperf is
// the regression benchmark. docs/BENCHMARKS.md documents the
// methodology and the full catalog.
//
// Usage:
//
//	llscbench [-e e1,e3] [-impls jp,amstyle] [-dur 200ms] [-iters 50000] [-csv] [-json out.json]
//
// With no -e flag every experiment runs; an unknown id exits 2 before
// anything runs. The serving experiments run at the ambient GOMAXPROCS.
// Results print as plain-text tables. With -json PATH the run is also
// written as a machine-readable Report (internal/bench.Report); PATH "-"
// writes JSON to stdout and suppresses the text tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"mwllsc/internal/bench"
	"mwllsc/internal/impls"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var ids []string
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	fs := flag.NewFlagSet("llscbench", flag.ContinueOnError)
	var (
		exps     = fs.String("e", "", "comma-separated experiments to run ("+strings.Join(ids, ",")+"); empty = all")
		implList = fs.String("impls", "", "comma-separated implementations (default: all of "+strings.Join(impls.Names(), ",")+")")
		dur      = fs.Duration("dur", 150*time.Millisecond, "measurement window per throughput point")
		iters    = fs.Int("iters", 30000, "iterations per latency point")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables (for plotting)")
		jsonOut  = fs.String("json", "", "also write a machine-readable JSON report to this path (\"-\" = stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	o := bench.Options{Dur: *dur, Iters: *iters}
	if *implList != "" {
		o.Impls = strings.Split(*implList, ",")
	}
	want := map[string]bool{}
	if *exps != "" {
		for _, e := range strings.Split(*exps, ",") {
			id := strings.ToLower(strings.TrimSpace(e))
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "llscbench: unknown experiment %q (have %s)\n", e, strings.Join(ids, ","))
				return 2
			}
			want[id] = true
		}
	}

	jsonOnly := *jsonOut == "-"
	var tables []*bench.Table
	for _, e := range bench.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t, err := e.Build(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llscbench: %s: %v\n", e.ID, err)
			return 1
		}
		if t.ID == "" {
			t.ID = e.ID
		}
		if !jsonOnly {
			if *csv {
				t.FprintCSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
		tables = append(tables, t)
	}
	if *jsonOut != "" {
		if err := bench.WriteReport(*jsonOut, "llscbench", tables, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "llscbench: %v\n", err)
			return 1
		}
	}
	return 0
}
