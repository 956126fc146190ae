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
//	sodabench -table window        # the sliding-window sweep (DESIGN.md §11)
//	sodabench -table lossywindow   # loss x window sweep, stop-and-wait vs the windowed engine (DESIGN.md §12)
//	sodabench -ops 100             # more operations per cell
//	sodabench -profile BENCH_table61.json   # machine-readable run profile
//	sodabench -table none -profile f.json   # profile only, no tables
//	sodabench -table none -window BENCH_window.json       # write the window artifact
//	sodabench -table none -windowcheck BENCH_window.json  # regression-gate against it
//	sodabench -table none -lossywindow BENCH_lossywindow.json       # write the lossy artifact
//	sodabench -table none -lossycheck BENCH_lossywindow.json        # robustness-gate against it
//
// All times are virtual milliseconds from the calibrated simulation; the
// shapes — who wins, by what factor, where the crossovers fall — are the
// reproduced result (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"soda/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to print: performance, breakdown, modcmp, deltat, window, lossywindow, all, none")
	ops := flag.Int("ops", 50, "measured operations per cell")
	profile := flag.String("profile", "", "write the Table 6.1 scenario's machine-readable run profile (JSON) to this file")
	windowOut := flag.String("window", "", "write the sliding-window sweep artifact (BENCH_window.json format) to this file")
	windowCheck := flag.String("windowcheck", "", "re-measure the window sweep and regression-gate it against this artifact")
	lossyOut := flag.String("lossywindow", "", "write the lossy-window sweep artifact (BENCH_lossywindow.json format) to this file")
	lossyCheck := flag.String("lossycheck", "", "re-measure the lossy-window sweep and robustness-gate it against this artifact")
	scaleOut := flag.String("scale", "", "write the internetwork scaling-curve artifact (BENCH_scale.json format) to this file")
	scaleCheck := flag.Bool("scalecheck", false, "gate the measured scaling curve: 10k-node boot completes, the DISCOVER cache wins at n>=512, cross-segment RTT stays within the pinned ratio")
	flag.IntVar(&scaleParWorkers, "parworkers", 0, "add the parallel-identity cell to every scale row: segmented workload re-run sequentially and with this many intra-run workers, trace hashes gated byte-identical")
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
	case "window":
		printWindow(*ops)
	case "lossywindow":
		printLossyWindow()
	case "scale":
		// The 10k-node rows make this the most expensive table; it runs
		// only on request, never under -table all.
		bench.PrintScaleCurve(os.Stdout, measuredScale())
	case "all":
		printPerformance(*ops)
		fmt.Println()
		printBreakdown(*ops)
		fmt.Println()
		printModComparison(*ops)
		fmt.Println()
		printDeltaT()
		fmt.Println()
		printWindow(*ops)
		fmt.Println()
		printLossyWindow()
	case "none":
		// Profile-only mode (CI bench-smoke).
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
	if *windowOut != "" {
		if err := writeWindow(*windowOut, *ops); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
			os.Exit(1)
		}
	}
	if *windowCheck != "" {
		if err := checkWindow(*windowCheck, *ops); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
			os.Exit(1)
		}
	}
	if *lossyOut != "" {
		if err := writeLossyWindow(*lossyOut); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
			os.Exit(1)
		}
	}
	if *lossyCheck != "" {
		if err := checkLossyWindow(*lossyCheck); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
			os.Exit(1)
		}
	}
	if *scaleOut != "" {
		if err := writeScale(*scaleOut, measuredScale()); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
			os.Exit(1)
		}
	}
	if *scaleCheck {
		if err := bench.CheckScaleCurve(measuredScale()); err != nil {
			fmt.Fprintf(os.Stderr, "sodabench: scale gate: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("scale gate: ok (boot completes at 10k nodes, DISCOVER cache wins at n>=512, RTT ratio within bound)")
	}
}

// scaleMemo measures the scaling curve at most once per invocation, so
// -table scale, -scale and -scalecheck share one (expensive) measurement.
// scaleParWorkers (-parworkers) adds the parallel-identity cell per row.
var (
	scaleMemo       *bench.ScaleCurve
	scaleParWorkers int
)

func measuredScale() bench.ScaleCurve {
	if scaleMemo == nil {
		c := bench.MeasureScaleCurvePar(nil, scaleParWorkers)
		scaleMemo = &c
	}
	return *scaleMemo
}

// writeScale records the BENCH_scale.json artifact.
func writeScale(path string, c bench.ScaleCurve) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Write(f); err != nil {
		return err
	}
	fmt.Printf("scale curve: %s written (%d rows)\n", path, len(c.Rows))
	return nil
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
			// Steady-state packet count from the largest cell.
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

func printWindow(ops int) {
	s := bench.MeasureWindowSweep(bench.DefaultWindowWords, bench.DefaultWindows, ops)
	fmt.Printf("Sliding-Window Bulk Transfer (DESIGN.md §11; %d-word pipelined %s, virtual time)\n",
		s.Words, s.Op)
	fmt.Printf("  %-8s %10s %10s %9s %7s %8s %9s\n",
		"Window", "ms/op", "frames/op", "speedup", "fills", "cumacks", "retrans")
	for _, r := range s.Rows {
		fmt.Printf("  %-8d %10.1f %10.1f %8.2fx %7d %8d %9d\n",
			r.Window, float64(r.PerOpUS)/1000, r.FramesPerOp, r.SpeedupVsW1,
			r.WindowFills, r.CumulativeAcks, r.FragRetransmits)
	}
}

// writeWindow regenerates the BENCH_window.json artifact.
func writeWindow(path string, ops int) error {
	s := bench.MeasureWindowSweep(bench.DefaultWindowWords, bench.DefaultWindows, ops)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("window sweep: %s written (%d ops per row)\n", path, s.Ops)
	return nil
}

// checkWindow re-measures the window sweep at the artifact's own op count
// and gates two regressions: the window=1 stop-and-wait baseline must not
// get slower than the checked-in figure (exact virtual time, so any drift
// is a real transport change), and window=4 must keep its >=2x speedup on
// the 1000-word pipelined PUT. Used by the CI window-bench job.
func checkWindow(path string, ops int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	want, err := bench.ReadWindowSweep(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if want.Ops > 0 {
		ops = want.Ops
	}
	got := bench.MeasureWindowSweep(want.Words, bench.DefaultWindows, ops)
	w1, w1want := got.Row(1), want.Row(1)
	if w1 == nil || w1want == nil {
		return fmt.Errorf("window sweep missing the window=1 baseline row")
	}
	if w1.PerOpUS > w1want.PerOpUS {
		return fmt.Errorf("window=1 regression: %d us/op, checked-in baseline %d us/op (virtual time is deterministic — this is a real stop-and-wait slowdown; if intentional, regenerate %s)",
			w1.PerOpUS, w1want.PerOpUS, path)
	}
	w4 := got.Row(4)
	if w4 == nil {
		return fmt.Errorf("window sweep missing the window=4 row")
	}
	if w4.SpeedupVsW1 < 2.0 {
		return fmt.Errorf("window=4 speedup %.2fx < 2.0x (per-op %d us vs baseline %d us)",
			w4.SpeedupVsW1, w4.PerOpUS, w1.PerOpUS)
	}
	fmt.Printf("window sweep check ok: window=1 %d us/op (baseline %d), window=4 speedup %.2fx\n",
		w1.PerOpUS, w1want.PerOpUS, w4.SpeedupVsW1)
	return nil
}

func printLossyWindow() {
	s := bench.MeasureLossyWindow(0, 0, nil, nil)
	fmt.Printf("Lossy Bulk Transfer (DESIGN.md §12; %d-byte messages, %d per cell, virtual time)\n",
		s.Bytes, s.Ops)
	fmt.Printf("  %-6s %-8s %-10s %10s %9s %7s %8s %8s %7s\n",
		"Loss", "Window", "Mode", "ms/op", "vs clean", "resub", "fragrtx", "selrtx", "windec")
	for _, r := range s.Rows {
		fmt.Printf("  %-6s %-8d %-10s %10.1f %8.2fx %7d %8d %8d %7d\n",
			fmt.Sprintf("%d%%", r.LossPct), r.Window, r.Mode,
			float64(r.PerOpUS)/1000, r.SlowdownVsClean,
			r.Resubmits, r.FragRetransmits, r.SelectiveRetransmits, r.WindowDecreases)
	}
}

// writeLossyWindow regenerates the BENCH_lossywindow.json artifact.
func writeLossyWindow(path string) error {
	s := bench.MeasureLossyWindow(0, 0, nil, nil)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("lossy-window sweep: %s written (%d ops per cell)\n", path, s.Ops)
	return nil
}

// checkLossyWindow re-measures the lossy sweep at the artifact's own batch
// shape and enforces the robustness gates (LossySweep.Check): the windowed
// engine must degrade gracefully under loss and beat stop-and-wait at every
// loss rate. Used by the CI lossy-window-bench job.
func checkLossyWindow(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	want, err := bench.ReadLossySweep(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	got := bench.MeasureLossyWindow(want.Bytes, want.Ops, nil, nil)
	if errs := got.Check(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "sodabench: lossy-window gate: %v\n", e)
		}
		return fmt.Errorf("%d lossy-window robustness gate(s) failed", len(errs))
	}
	// Determinism cross-check against the committed artifact: virtual
	// time is a pure function of the seed, so any drift is a real
	// transport change and the artifact must be regenerated consciously.
	for i := range got.Rows {
		g := got.Rows[i]
		w := want.Row(g.LossPct, g.Window)
		if w == nil {
			return fmt.Errorf("%s: missing row loss=%d%% window=%d (regenerate the artifact)",
				path, g.LossPct, g.Window)
		}
		if w.PerOpUS != g.PerOpUS {
			return fmt.Errorf("row loss=%d%% window=%d: measured %d us/op, artifact says %d us/op (deterministic virtual time — if the transport change is intentional, regenerate %s)",
				g.LossPct, g.Window, g.PerOpUS, w.PerOpUS, path)
		}
	}
	if w8, sw := got.Row(15, 8), got.Row(15, 1); w8 != nil && sw != nil {
		fmt.Printf("lossy-window check ok: at 15%% loss w=8 %.2fx vs clean, %d us/op vs stop-and-wait's %d\n",
			w8.SlowdownVsClean, w8.PerOpUS, sw.PerOpUS)
	}
	return nil
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
