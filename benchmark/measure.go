package main

import (
	"fmt"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// options selects one measurement.
type options struct {
	workload string
	seed     int64
	seconds  float64 // rounds repeat until this much host time has passed
	trace    bool    // the traced run: per-layer metrics
	scale    float64 // common factor on every workload's amount of work per round
}

// metricValue is one reported number. Spread is the distance between the
// quartiles of the metric's per-round values as a share of their median:
// the run's own estimate of its noise, which -compare holds against the
// metric's bound.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Scale    float64 `json:"scale"`
	Seconds  float64 `json:"seconds"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Rounds    int  `json:"rounds"`
	// LatSamples operations were timed individually; LatTail is the
	// percentile reported as lat_p99_us and virt_p99_us: 99 once ten
	// samples lie beyond it, the highest supported percentile otherwise.
	LatSamples int     `json:"lat_samples"`
	LatTail    float64 `json:"lat_tail_percentile"`
	// Fingerprint collects every simulated statistic of one round. It is the
	// same in every round of a run, and the same for segments_seq and
	// segments_par at one seed and scale.
	Fingerprint string `json:"fingerprint,omitempty"`

	Metrics  map[string]metricValue `json:"metrics"`
	Problems []string               `json:"problems,omitempty"`

	spans []span
}

func (res *result) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// roundFunc returns the function that runs one round of the named workload.
func roundFunc(name string) (func(in *inputs, scale float64, traced bool) round, bool) {
	switch name {
	case "chaos_sweep":
		return sweepRound, true
	case "socket_rtt":
		return socketRound, true
	}
	w, ok := simWorkloads[name]
	return func(in *inputs, scale float64, traced bool) round {
		return w.run(in, scale, traced, w.parallel)
	}, ok
}

// A run has at least minRounds rounds, so that medians and spreads exist.
// The traced run alternates untraced and traced rounds, needs
// minTracedPairs of each, and gives traceShare of its time to them and the
// rest to the ladder.
const (
	minRounds      = 3
	minTracedPairs = 2
	traceShare     = 0.5
)

// sampleCap bounds the wall latencies a run keeps, four bytes each. They
// are stored in one block allocated before the first round, so that the
// live heap — and with it how often the collector runs during a timed
// section — is the same in the first round as in the last, and small.
const sampleCap = 1 << 18

// sampleStore holds the wall latency of every operation of the untraced
// rounds, in nanoseconds, round after round.
type sampleStore struct {
	ns     []uint32
	rounds [][]uint32 // one window onto ns per round
}

func (s *sampleStore) add(lat []uint32) {
	start := len(s.ns)
	s.ns = append(s.ns, lat[:min(len(lat), cap(s.ns)-len(s.ns))]...)
	s.rounds = append(s.rounds, s.ns[start:])
}

// measure runs one workload: rounds on the same inputs until the time is
// up, then the checks, then the metrics.
func measure(opt options) result {
	res := result{
		Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Scale: opt.scale, Seconds: opt.seconds,
		Metrics: map[string]metricValue{},
	}
	runRound, ok := roundFunc(opt.workload)
	if !ok {
		res.problem("unknown workload %q", opt.workload)
		return res
	}
	// A sequential simulation is one thread of control handed between
	// goroutines. It runs on one P: with a second, idle P the Go scheduler
	// moves the hand-off across threads at random, which on this host made
	// rtt_small half as fast and five times as noisy.
	if w, ok := simWorkloads[opt.workload]; ok && !w.parallel {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	in := generate(opt.seed)
	samples := sampleStore{ns: make([]uint32, 0, sampleCap)}
	need, budget := minRounds, opt.seconds
	if opt.trace {
		need, budget = 2*minTracedPairs, traceShare*opt.seconds
	}
	var plain, traced []round
	start := nowNS()
	for i := 0; i < need || float64(nowNS()-start) < budget*1e9; i++ {
		runtime.GC()
		r := runRound(in, opt.scale, opt.trace && i%2 == 1)
		for _, p := range r.problems {
			res.problem("round %d: %s", i, p)
		}
		// Only what later code reads stays: the raw samples of a round
		// would otherwise grow the heap round by round.
		if !opt.trace {
			samples.add(r.lat)
		}
		vlat := sortedCopy(r.vlat)
		r.virtTailUS = percentile(vlat, tailPercentile(len(vlat)))
		r.lat, r.vlat = nil, nil
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if len(r.problems) > 0 {
			break
		}
	}
	res.Rounds = len(plain) + len(traced)
	first := plain[0]
	res.Fingerprint = first.fingerprint

	// Everything the simulation computes must repeat: in every round, traced
	// or not, and — for segments_par — in a sequential run of the same
	// inputs.
	for i, r := range append(plain[1:], traced...) {
		if r.fingerprint != first.fingerprint {
			res.problem("simulated statistics differ between rounds 0 and %d:\n  %s\n  %s", i+1, first.fingerprint, r.fingerprint)
			break
		}
	}
	if w := simWorkloads[opt.workload]; w.parallel && len(res.Problems) == 0 {
		if ref := w.run(in, opt.scale, false, false); ref.fingerprint != first.fingerprint {
			res.problem("parallel and sequential simulation differ:\n  par %s\n  seq %s", first.fingerprint, ref.fingerprint)
		}
	}
	for _, r := range append(plain, traced...) {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}

	if opt.trace {
		layerMetrics(&res, opt, plain, traced)
	} else {
		endToEndMetrics(&res, plain, samples)
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res
}

// perRound collects f over rounds.
func perRound(rounds []round, f func(r round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

func opsPerSecond(r round) float64 {
	if r.wallNS == 0 {
		return 0
	}
	return float64(r.ops) / (float64(r.wallNS) / 1e9)
}

// perOp divides a round's total by its operations.
func perOp(total func(r round) float64) func(r round) float64 {
	return func(r round) float64 {
		if r.ops == 0 {
			return 0
		}
		return total(r) / float64(r.ops)
	}
}

// endToEndMetrics fills res from the untraced rounds. Host-time metrics are
// medians over rounds (latency percentiles pool every round's samples);
// model metrics come from the first round, every other round having been
// checked equal to it.
func endToEndMetrics(res *result, rounds []round, samples sampleStore) {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	set := func(name string, value float64, perRoundValues []float64) {
		res.Metrics[name] = metricValue{Value: value, Unit: units[name], Spread: quartileSpread(perRoundValues)}
	}
	overRounds := func(name string, f func(r round) float64) {
		v := perRound(rounds, f)
		set(name, median(v), v)
	}
	// latencyUS reports one percentile of the pooled samples, with the
	// spread of the same percentile taken round by round.
	latencyUS := func(name string, p float64) {
		var byRound []float64
		for _, r := range samples.rounds {
			if len(r) > 0 {
				byRound = append(byRound, float64(percentile(sortedCopy(r), p))/1e3)
			}
		}
		set(name, float64(percentile(sortedCopy(samples.ns), p))/1e3, byRound)
	}

	first := rounds[0]
	res.LatSamples = len(samples.ns)
	// The tail percentile follows from the samples a run is sure to have,
	// so that it is the same in every run of a workload at one scale.
	res.LatTail = tailPercentile(minRounds * len(samples.rounds[0]))

	overRounds("setup_s", func(r round) float64 { return float64(r.setupNS) / 1e9 })
	overRounds("ops_per_s", opsPerSecond)
	latencyUS("lat_p50_us", 50)
	latencyUS("lat_p99_us", res.LatTail)
	set("virt_us_per_op", perOp(func(r round) float64 { return float64(r.virtNS) / 1e3 })(first), nil)
	set("virt_p99_us", float64(first.virtTailUS), nil)
	set("frames_per_op", perOp(func(r round) float64 { return float64(r.frames) })(first), nil)
	overRounds("allocs_per_op", perOp(func(r round) float64 { return float64(r.mem.mallocs) }))
	overRounds("bytes_per_op", perOp(func(r round) float64 { return float64(r.mem.bytes) }))
	set("peak_rss_mb", peakRSSMB(), nil)
}

// layerMetrics fills res from the traced run: the counters each layer kept
// during the workload, the tracing overhead, and the ladder of per-layer
// rungs (which does not depend on the workload). A counter of a layer the
// workload leaves idle reads 0.
func layerMetrics(res *result, opt options, plain, traced []round) {
	m := map[string]float64{}
	for name, v := range plain[0].counters {
		m[name] = v
	}
	if base := median(perRound(plain, opsPerSecond)); base > 0 && len(traced) > 0 {
		m["trace.overhead_ratio"] = median(perRound(traced, opsPerSecond)) / base
		res.spans = roundSpans(traced[len(traced)-1])
	}
	for name, v := range ladder(opt.scale) {
		m[name] = v
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
}
