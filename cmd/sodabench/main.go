// Command sodabench regenerates the tables and figures of the thesis's
// evaluation (chapter 5) in the paper's own format.
//
// Usage:
//
//	sodabench                      # everything
//	sodabench -table performance   # the "SODA Performance" table (E1+E5)
//	sodabench -table breakdown     # the overhead breakdown table (E2)
//	sodabench -table modcmp        # the SODA vs *MOD comparison (E3)
//	sodabench -table deltat        # the Delta-t situations figure (E4)
//	sodabench -ops 100             # more operations per cell
//	sodabench -profile BENCH_table61.json   # machine-readable run profile
//	sodabench -table none -profile f.json   # profile only, no tables
//
// All times are virtual milliseconds from the calibrated simulation; the
// shapes — who wins, by what factor, where the crossovers fall — are the
// reproduced result (see EXPERIMENTS.md). The experiments beyond the
// thesis (E6–E9: window, lossy-window and scaling sweeps) are pinned
// tests instead: go test -run '<name>' -v ./internal/bench prints them.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"soda/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to print: performance, breakdown, modcmp, deltat, all, none")
	ops := flag.Int("ops", 50, "measured operations per cell")
	profile := flag.String("profile", "", "write the Table 6.1 scenario's machine-readable run profile (JSON) to this file")
	flag.Parse()

	switch *table {
	case "performance":
		printPerformance(*ops)
	case "breakdown":
		printBreakdown(*ops)
	case "modcmp":
		printModComparison(*ops)
	case "deltat":
		printDeltaT()
	case "all":
		printPerformance(*ops)
		fmt.Println()
		printBreakdown(*ops)
		fmt.Println()
		printModComparison(*ops)
		fmt.Println()
		printDeltaT()
	case "none":
		// Profile-only mode.
	default:
		fmt.Fprintf(os.Stderr, "sodabench: unknown table %q\n", *table)
		os.Exit(2)
	}

	if *profile != "" {
		if err := writeProfile(*profile, *ops); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeProfile re-runs the Table 6.1 SIGNAL breakdown scenario with the
// metrics registry attached and writes the exportable profile.
func writeProfile(path string, ops int) error {
	p := bench.Table61Profile(ops)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("profile: %s written (%d ops, total %.1f ms/op)\n",
		path, p.Ops, float64(p.Breakdown.TotalUS)/1000)
	return nil
}

var words = []int{0, 1, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func printPerformance(ops int) {
	fmt.Println("SODA Performance (cf. thesis p. 115; virtual milliseconds per operation)")
	for _, op := range []bench.Op{bench.OpPut, bench.OpGet, bench.OpExchange} {
		for _, pipelined := range []bool{false, true} {
			kernel := "non-pipelined"
			if pipelined {
				kernel = "pipelined"
			}
			results := make([]bench.Result, len(words))
			for i, w := range words {
				results[i] = bench.MeasureOp(bench.Config{Op: op, Words: w, Pipelined: pipelined, Ops: ops})
			}
			// Steady-state packet count from the 100-word cell (words[2]),
			// past GET's 0→1-word jump (EXPERIMENTS.md E5).
			fmt.Printf("\nMilliseconds Per %v (%s)  —  %.1f packets per %v\n",
				op, kernel, results[2].FramesPerOp, op)
			fmt.Printf("%-6s", "Words")
			for _, w := range words {
				fmt.Printf("%7d", w)
			}
			fmt.Printf("\n%-6s", "ms")
			for _, r := range results {
				fmt.Printf("%7.1f", ms(r.PerOp))
			}
			fmt.Println()
		}
	}
}

func printBreakdown(ops int) {
	bd := bench.MeasureBreakdown(ops)
	fmt.Println("Breakdown of Communications Overhead (cf. thesis p. 116)")
	fmt.Printf("  %.1f packets per SIGNAL\n", bd.FramesPerOp)
	rows := []struct {
		name string
		v    time.Duration
	}{
		{"Connection Timers", bd.ConnTimers},
		{"Retransmit Timers", bd.RetransTimers},
		{"Context Switch", bd.CtxSwitch},
		{"Transmission Time", bd.Transmission},
		{"Client Overhead", bd.ClientOverhead},
		{"Protocol Time", bd.Protocol},
		{"Buffer Copies", bd.Copies},
	}
	for _, r := range rows {
		fmt.Printf("  %-20s %5.1f ms\n", r.name, ms(r.v))
	}
	fmt.Printf("  %-20s %5.1f ms\n", "Total Time", ms(bd.Total))
}

func printModComparison(ops int) {
	fmt.Println("SODA vs *MOD (cf. thesis §5.5)")
	for _, row := range bench.MeasureModComparison(ops) {
		fmt.Printf("  %-44s %6.1f ms\n", row.Name, ms(row.PerOp))
	}
}

func printDeltaT() {
	fmt.Println("Typical Delta-t Situations (cf. thesis p. 106)")
	for _, sc := range bench.RunDeltaTScenarios() {
		status := "ok"
		if !sc.OK {
			status = "FAILED"
		}
		fmt.Printf("\n[%s] %s\n", status, sc.Name)
		for _, ev := range sc.Events {
			fmt.Printf("    %s\n", ev)
		}
	}
}
