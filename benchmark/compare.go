package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is -compare's finding for one workload and metric.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"      // b is worse than a by more than the bound
	verdictChanged    verdict = "changed"    // an exact metric differs, in whichever direction
	verdictUnresolved verdict = "unresolved" // the runs' own noise is wider than the bound
)

// worseBy is the share of a by which b is worse; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// judge holds metric d of result b against the same metric of result a.
// Outputs of the deterministic simulation must be identical when both sides
// ran the same inputs (exact); every other metric may be worse by its
// bound, and is unresolved when either run's noise is wider than that bound
// and b is not better than a by more than the noise.
func judge(d metricDef, a, b result) (v verdict, worse, noise float64) {
	ma, mb := a.Metrics[d.Name], b.Metrics[d.Name]
	worse = worseBy(d.Better, ma.Value, mb.Value)
	if exact(d, a, b) {
		if ma.Value != mb.Value {
			return verdictChanged, worse, 0
		}
		return verdictOK, worse, 0
	}
	noise = math.Max(medianNoise(a, ma), medianNoise(b, mb))
	switch {
	case worse > d.Bound:
		return verdictWorse, worse, noise
	case noise > d.Bound && worse > -noise:
		return verdictUnresolved, worse, noise
	}
	return verdictOK, worse, noise
}

// medianNoise estimates how far a run's median over rounds may be off: the
// spread of its rounds, which shrinks with the square root of their number.
func medianNoise(r result, m metricValue) float64 {
	if r.Rounds > 1 {
		return m.Spread / math.Sqrt(float64(r.Rounds))
	}
	return m.Spread
}

func exact(d metricDef, a, b result) bool {
	return exactOn(d.Name, a.Workload) && a.Seed == b.Seed && a.Scale == b.Scale
}

// compareSets prints one row per workload and end-to-end metric of the two
// result sets and fails when any row is worse or changed.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	setA, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	setB, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	byWorkload := map[string]result{}
	for _, r := range setB {
		byWorkload[r.Workload] = r
	}
	counts := map[verdict]int{}
	fmt.Fprintf(stdout, "%-13s %-15s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "noise", "verdict")
	for _, a := range setA {
		b, ok := byWorkload[a.Workload]
		if !ok || a.Trace || b.Trace {
			continue
		}
		for _, d := range endToEnd {
			v, worse, noise := judge(d, a, b)
			counts[v]++
			bound := fmt.Sprintf("%.1f%%", 100*d.Bound)
			if exact(d, a, b) {
				bound = "exact"
			}
			fmt.Fprintf(stdout, "%-13s %-15s %14.6g %14.6g %8.2f%% %7s %6.1f%%  %s\n",
				a.Workload, d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, 100*worse, bound, 100*noise, v)
		}
	}
	fmt.Fprintf(stdout, "%d ok, %d worse, %d changed, %d unresolved\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictChanged], counts[verdictUnresolved])
	if counts[verdictOK]+counts[verdictUnresolved] == 0 && counts[verdictWorse]+counts[verdictChanged] == 0 {
		fmt.Fprintln(stderr, "benchmark: the two sets share no workload")
		return 2
	}
	if counts[verdictWorse]+counts[verdictChanged] > 0 {
		return 1
	}
	return 0
}
