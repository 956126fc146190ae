// Command benchmark is the one benchmark of this repository: six named
// workloads, end-to-end metrics with bounds, and a per-layer ladder, all
// measured from outside the program (README.md has the full account).
//
//	go run -C benchmark .                         every workload, end-to-end metrics
//	go run -C benchmark . -trace 1                every workload, per-layer metrics
//	go run -C benchmark . -workload rtt_small     one workload, in this process
//	go run -C benchmark . -compare a.json b.json  hold set b against set a
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics, as BENCHMARK.json's contract asks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt     options
		names   = fs.String("workload", "all", "workload name, a comma-separated list, or all")
		trace   = fs.Int("trace", 0, "1 selects the traced run: per-layer metrics instead of end-to-end ones")
		out     = fs.String("out", "", "directory for the result set (end_to_end.json or per_layer.json) and, traced, the span files")
		compare = fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		child   = fs.Bool("child", false, "print the full result as the last line (the runner passes this to its own child processes)")
	)
	fs.Int64Var(&opt.seed, "seed", 1, "generator seed: the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "host seconds one run measures for")
	fs.Float64Var(&opt.scale, "scale", 1, "common factor on every workload's amount of work per round")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace != 0
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if opt.seconds <= 0 || opt.scale <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -scale must be positive")
		return 2
	}

	var workloads []string
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			for _, w := range workloadDefs {
				workloads = append(workloads, w.Name)
			}
		} else if _, ok := roundFunc(name); ok {
			workloads = append(workloads, name)
		} else {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
	}

	if len(workloads) == 1 {
		// One workload runs in this process, so that its memory high-water
		// mark and GC state are its own.
		opt.workload = workloads[0]
		res := measure(opt)
		res.print(stdout)
		if err := res.writeFiles(*out, !*child); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		last := any(res.contract())
		if *child {
			last = res
		}
		if err := json.NewEncoder(stdout).Encode(last); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runSet(workloads, opt, *out, stdout, stderr)
}

// runSet runs each workload in a child process of its own — the runner
// re-executes itself — and then holds segments_par against segments_seq.
func runSet(workloads []string, opt options, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	var set []result
	ok := true
	for _, name := range workloads {
		cmd := exec.Command(self, "-child",
			"-workload", name,
			"-seed", fmt.Sprint(opt.seed),
			"-seconds", fmt.Sprint(opt.seconds),
			"-scale", fmt.Sprint(opt.scale),
			"-trace", fmt.Sprint(trace),
			"-out", out)
		cmd.Stderr = stderr
		output, runErr := cmd.Output()
		body, last := splitLastLine(string(output))
		fmt.Fprint(stdout, body)
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: no result (%v): %v\n", name, runErr, err)
			ok = false
			continue
		}
		ok = ok && res.Correct
		set = append(set, res)
	}
	for _, problem := range crossCheck(set) {
		fmt.Fprintln(stdout, "FAILED CHECK:", problem)
		ok = false
	}
	if err := writeSet(out, opt.trace, set); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stdout, "benchmark: FAILED")
		return 1
	}
	fmt.Fprintf(stdout, "benchmark: %d workloads, every check passed\n", len(set))
	return 0
}

// splitLastLine separates the last line of s from what precedes it.
func splitLastLine(s string) (body, last string) {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[:i+1], s[i+1:]
	}
	return "", s
}

// crossCheck holds the results of one set against each other: the parallel
// scheduler must have simulated exactly what the sequential one did.
func crossCheck(set []result) []string {
	by := map[string]result{}
	for _, r := range set {
		by[r.Workload] = r
	}
	seq, haveSeq := by["segments_seq"]
	par, havePar := by["segments_par"]
	if haveSeq && havePar && seq.Correct && par.Correct && seq.Fingerprint != par.Fingerprint {
		return []string{fmt.Sprintf("segments_par simulated something else than segments_seq:\n  seq %s\n  par %s", seq.Fingerprint, par.Fingerprint)}
	}
	return nil
}

func setFileName(traced bool) string {
	if traced {
		return "per_layer.json"
	}
	return "end_to_end.json"
}

func writeSet(dir string, traced bool, set []result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, setFileName(traced)), set)
}

func readSet(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// writeFiles writes what a single-workload run leaves in dir: the spans of a
// traced run and, unless a runner collects the set itself, a one-result set.
func (res result) writeFiles(dir string, withSet bool) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(res.spans) > 0 {
		file := spanFile{Workload: res.Workload, Spans: res.spans}
		if err := writeJSON(filepath.Join(dir, "spans_"+res.Workload+".json"), file); err != nil {
			return err
		}
	}
	if withSet {
		return writeSet(dir, res.Trace, []result{res})
	}
	return nil
}

// contractResult is the last line of a single-workload run.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res result) contract() contractResult {
	c := contractResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for name, m := range res.Metrics {
		c.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return c
}

// print writes the result for a reader: every metric by name with its unit,
// the sample counts behind the percentiles, and every failed check.
func (res result) print(w io.Writer) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "workload %s (%s)  seed %d  scale %g  rounds %d  operations %d  failed %d\n",
		res.Workload, kind, res.Seed, res.Scale, res.Rounds, res.Attempted, res.Failed)
	if !res.Trace {
		fmt.Fprintf(w, "  latency samples %d, tail reported at p%g\n", res.LatSamples, res.LatTail)
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-16s %16.6g %-8s spread over rounds %5.1f%%  bound %4.1f%%\n", d.Name, m.Value, m.Unit, 100*m.Spread, 100*d.Bound)
			}
		}
	} else {
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  FAILED CHECK:", p)
	}
}
