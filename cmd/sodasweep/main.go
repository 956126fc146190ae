// Command sodasweep shards a matrix of independent deterministic runs —
// seeds × generated fault plans × node counts — across a worker pool and
// merges the results into one key-ordered JSON report.
//
// Usage:
//
//	sodasweep                                 # 8 seeds of the fileserver, fault-free
//	sodasweep -scenario philosophers -nodes 4,6,8
//	sodasweep -seeds 16 -plans 4              # 16 seeds × (control + 4 chaos columns)
//	sodasweep -workers 8 -out report.json     # shard across 8 workers
//
// The report is byte-identical for a given spec regardless of -workers:
// every run is an isolated simulation, merged by run key. -check makes
// invariant violations fatal (non-zero exit), -instrument embeds a full
// observability profile per run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"soda/internal/deltat"
	"soda/sweep"
)

func main() {
	scenario := flag.String("scenario", "fileserver", "workload: "+strings.Join(sweep.Scenarios(), ", "))
	seeds := flag.Int("seeds", 8, "number of simulation seeds (1..n)")
	plans := flag.Int("plans", 0, "number of generated fault-plan columns (plus the fault-free control)")
	nodesFlag := flag.String("nodes", "3", "comma-separated node counts")
	horizon := flag.Duration("horizon", 5*time.Second, "virtual run time per cell")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	instrument := flag.Bool("instrument", false, "attach tracer+metrics and embed per-run profiles")
	check := flag.Bool("check", true, "arm the invariant checkers; violations exit non-zero")
	window := flag.Int("window", 0, fmt.Sprintf("transport sliding-window depth on every node (0 or 1 = stop-and-wait, at most %d; anything else is rejected)", deltat.MaxWindowMessages))
	segments := flag.Int("segments", 0, "star-internetwork segment count (<=1 = single shared bus)")
	forwardDelay := flag.Duration("forwarddelay", 0, "gateway store-and-forward delay; the conservative lookahead bound for -parworkers")
	parWorkers := flag.Int("parworkers", 0, "intra-run parallel workers per simulation (needs -segments >= 2 and -forwarddelay > 0; <=1 = sequential)")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	flag.Parse()

	spec := sweep.Spec{
		Scenario:     *scenario,
		Horizon:      *horizon,
		Instrument:   *instrument,
		Checks:       *check,
		Window:       *window,
		Segments:     *segments,
		ForwardDelay: *forwardDelay,
		ParWorkers:   *parWorkers,
	}
	for s := int64(1); s <= int64(*seeds); s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	spec.PlanSeeds = []int64{0}
	for p := int64(1); p <= int64(*plans); p++ {
		spec.PlanSeeds = append(spec.PlanSeeds, p)
	}
	for _, part := range strings.Split(*nodesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatalf("bad -nodes %q: %v", *nodesFlag, err)
		}
		spec.Nodes = append(spec.Nodes, n)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}

	// Wall-clock timing measures the sweep engine itself (the runs/sec
	// summary line), never anything inside a simulation — every simulated
	// instant comes from the virtual clock.
	start := time.Now() //lint:allow nowallclock (host-side throughput measurement of the engine, outside all simulations)
	rep, err := sweep.Run(spec, w)
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start) //lint:allow nowallclock (host-side throughput measurement of the engine, outside all simulations)

	dest := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		dest = f
	}
	if err := rep.Write(dest); err != nil {
		fatalf("writing report: %v", err)
	}

	runsPerSec := float64(rep.Aggregate.Runs) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "sodasweep: %d runs on %d workers in %v (%.1f runs/sec)\n",
		rep.Aggregate.Runs, w, elapsed.Round(time.Millisecond), runsPerSec)

	if rep.Aggregate.Failed > 0 {
		fatalf("%d runs failed", rep.Aggregate.Failed)
	}
	if *check && rep.Aggregate.TotalViolations > 0 {
		fatalf("%d invariant violations across the sweep", rep.Aggregate.TotalViolations)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sodasweep: "+format+"\n", args...)
	os.Exit(1)
}
