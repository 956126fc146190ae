// Command sodasweep shards a matrix of independent deterministic runs —
// seeds × generated fault plans × node counts — across a worker pool and
// merges the results into one key-ordered JSON report. -scenario names any
// entry of the scenario catalogue (package soda/scenario).
//
// Usage:
//
//	sodasweep                                 # 8 seeds of the fileserver, fault-free
//	sodasweep -scenario philosophers -nodes 4,6,8
//	sodasweep -scenario dining -nodes 5      # a fixed-layout entry takes its own size
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
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"soda/internal/deltat"
	"soda/scenario"
	"soda/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "sodasweep: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, runs the sweep they describe and writes its report to
// stdout (or -out), with the throughput line on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sodasweep", flag.ExitOnError)
	scenarioName := fs.String("scenario", "fileserver", "scenario catalogue entry: "+strings.Join(scenario.Names(), ", "))
	seeds := fs.Int("seeds", 8, "number of simulation seeds (1..n)")
	plans := fs.Int("plans", 0, "number of generated fault-plan columns (plus the fault-free control)")
	nodesFlag := fs.String("nodes", "3", "comma-separated node counts")
	horizon := fs.Duration("horizon", 5*time.Second, "virtual run time per cell (the cap of a count-based scenario)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
	instrument := fs.Bool("instrument", false, "attach tracer+metrics and embed per-run profiles")
	check := fs.Bool("check", true, "arm the invariant checkers; violations exit non-zero")
	window := fs.Int("window", 0, fmt.Sprintf("transport sliding-window depth on every node (0 or 1 = stop-and-wait, at most %d; anything else is rejected)", deltat.MaxWindowMessages))
	segments := fs.Int("segments", 0, "star-internetwork segment count (<=1 = single shared bus)")
	forwardDelay := fs.Duration("forwarddelay", 0, "gateway store-and-forward delay; the conservative lookahead bound for -parworkers")
	parWorkers := fs.Int("parworkers", 0, "intra-run parallel workers per simulation (needs -segments >= 2 and -forwarddelay > 0; <=1 = sequential)")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	_ = fs.Parse(args)

	spec := sweep.Spec{
		Scenario:     *scenarioName,
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
			return fmt.Errorf("bad -nodes %q: %v", *nodesFlag, err)
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
		return err
	}
	elapsed := time.Since(start) //lint:allow nowallclock (host-side throughput measurement of the engine, outside all simulations)

	dest := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dest = f
	}
	if err := rep.Write(dest); err != nil {
		return fmt.Errorf("writing report: %v", err)
	}

	runsPerSec := float64(rep.Aggregate.Runs) / elapsed.Seconds()
	fmt.Fprintf(stderr, "sodasweep: %d runs on %d workers in %v (%.1f runs/sec)\n",
		rep.Aggregate.Runs, w, elapsed.Round(time.Millisecond), runsPerSec)

	if rep.Aggregate.Failed > 0 {
		return fmt.Errorf("%d runs failed", rep.Aggregate.Failed)
	}
	if *check && rep.Aggregate.TotalViolations > 0 {
		return fmt.Errorf("%d invariant violations across the sweep", rep.Aggregate.TotalViolations)
	}
	return nil
}
