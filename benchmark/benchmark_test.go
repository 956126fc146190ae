package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"soda/sweep"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1_000_000, 99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if beyond := float64(tc.n) * (100 - got) / 100; got > 50 && beyond < minBeyond {
			t.Errorf("tailPercentile(%d) = %g leaves %.1f samples beyond it", tc.n, got, beyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for p, want := range map[float64]uint32{1: 10, 50: 50, 90: 90, 91: 100, 99: 100, 100: 100} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(p%g) = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// TestQuartileSpreadMatchesPython pins the acceptance rule's arithmetic:
// statistics.quantiles([..], n=4) of these ten values is [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generate(7), generate(7), generate(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("generate(7) twice gave different inputs")
	}
	if reflect.DeepEqual(a.scripts, c.scripts) {
		t.Error("seeds 7 and 8 gave the same client scripts")
	}
	if bytes.Equal(a.payload, c.payload) || reflect.DeepEqual(a.putSizes, c.putSizes) {
		t.Error("seeds 7 and 8 gave the same payloads")
	}
	clients := 0
	for mid, sc := range a.scripts {
		if len(sc.steps) == 0 {
			continue
		}
		clients++
		for _, st := range sc.steps {
			if !isServer(st.target) {
				t.Fatalf("client %d is scripted to call %d, which is no server", mid, st.target)
			}
		}
	}
	if want := segCount * (segNodes - segServers); clients != want {
		t.Errorf("%d scripted clients, want %d", clients, want)
	}
}

// benchmarkJSON is the declaration the driver reads.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if !reflect.DeepEqual(decl.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", decl.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", decl.RunSeconds, defaultSeconds)
	}
	var sawSetup bool
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range decl.Workloads {
		if _, ok := roundFunc(w.Name); !ok {
			t.Errorf("workload %q is declared but cannot be run", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func metricNames(m map[string]contractMetric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tiny is the scale the tests run at: every amount of work sits on its floor.
const tiny = 0.001

// TestEveryWorkloadPassesItsChecks runs each workload through the command
// itself and holds the last line of its output against the declaration.
func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	decl := readBenchmarkJSON(t)
	var want []string
	for _, d := range decl.EndToEnd {
		want = append(want, d.Name)
	}
	sort.Strings(want)
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "5", "--seconds", "0.01", "--trace", "0", "-scale", "0.001"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
			}
			_, last := splitLastLine(stdout.String())
			var got contractResult
			dec := json.NewDecoder(strings.NewReader(last))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("last line %q: %v", last, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
			}
			if names := metricNames(got.Metrics); !reflect.DeepEqual(names, want) {
				t.Errorf("metrics %v, declared %v", names, want)
			}
			for _, d := range decl.EndToEnd {
				if m := got.Metrics[d.Name]; m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %v %q, want a positive number of %q", d.Name, m.Value, m.Unit, d.Unit)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	decl := readBenchmarkJSON(t)
	res := measure(options{workload: "segments_par", seed: 5, seconds: 0.01, trace: true, scale: tiny})
	if !res.Correct {
		t.Fatalf("problems: %v", res.Problems)
	}
	got := res.contract().Metrics
	var want []string
	for _, d := range decl.PerLayer {
		want = append(want, d.Name)
	}
	sort.Strings(want)
	if names := metricNames(got); !reflect.DeepEqual(names, want) {
		t.Errorf("metrics %v, declared %v", names, want)
	}
	for _, name := range []string{
		"frame.encode_ns", "sim.event_ns", "sim.par_windows", "bus.send_deliver_ns", "bus.frames_sent",
		"deltat.msg_ns", "deltat.bulk_msg_virt_us", "core.rtt_ns", "core.boot_bytes", "internet.frames_forwarded",
		"internet.discover_hit_ratio", "netx.frame_rtt_p50_us", "sweep.run_ns", "obs.virt_protocol_us", "trace.overhead_ratio",
	} {
		if !(got[name].Value > 0) {
			t.Errorf("%s = %v, want a positive number on segments_par", name, got[name].Value)
		}
	}
	if len(res.spans) == 0 {
		t.Error("the traced run kept no spans")
	}
}

func TestSegmentsParSimulatesWhatSegmentsSeqDoes(t *testing.T) {
	opt := options{seed: 9, seconds: 0.01, scale: tiny}
	opt.workload = "segments_seq"
	seq := measure(opt)
	opt.workload = "segments_par"
	par := measure(opt)
	if !seq.Correct || !par.Correct {
		t.Fatalf("problems: seq %v par %v", seq.Problems, par.Problems)
	}
	if problems := crossCheck([]result{seq, par}); len(problems) > 0 {
		t.Error(problems)
	}
	for _, name := range []string{"virt_us_per_op", "virt_p99_us", "frames_per_op"} {
		if seq.Metrics[name].Value != par.Metrics[name].Value {
			t.Errorf("%s: seq %v, par %v", name, seq.Metrics[name].Value, par.Metrics[name].Value)
		}
	}
	par.Fingerprint += " and something else"
	if len(crossCheck([]result{seq, par})) == 0 {
		t.Error("crossCheck passed two different fingerprints")
	}
}

func TestJudge(t *testing.T) {
	mk := func(workload string, seed int64, values map[string]float64, spread float64) result {
		r := result{Workload: workload, Seed: seed, Scale: 1, Metrics: map[string]metricValue{}}
		for name, v := range values {
			r.Metrics[name] = metricValue{Value: v, Spread: spread}
		}
		return r
	}
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no metric %q", name)
		return metricDef{}
	}
	ops, virt := def("ops_per_s"), def("virt_us_per_op")
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b result
		want verdict
	}{
		{"within bound", ops, mk("rtt_small", 1, map[string]float64{"ops_per_s": 100}, 0.01), mk("rtt_small", 1, map[string]float64{"ops_per_s": 100 * (1 - ops.Bound/2)}, 0.01), verdictOK},
		{"beyond bound", ops, mk("rtt_small", 1, map[string]float64{"ops_per_s": 100}, 0.01), mk("rtt_small", 1, map[string]float64{"ops_per_s": 100 * (1 - 2*ops.Bound)}, 0.01), verdictWorse},
		{"higher is better", ops, mk("rtt_small", 1, map[string]float64{"ops_per_s": 100}, 0.01), mk("rtt_small", 1, map[string]float64{"ops_per_s": 300}, 0.01), verdictOK},
		{"noisy", ops, mk("rtt_small", 1, map[string]float64{"ops_per_s": 100}, 2*ops.Bound), mk("rtt_small", 1, map[string]float64{"ops_per_s": 99}, 0.01), verdictUnresolved},
		{"noisy but clearly better", ops, mk("rtt_small", 1, map[string]float64{"ops_per_s": 100}, 2*ops.Bound), mk("rtt_small", 1, map[string]float64{"ops_per_s": 200}, 0.01), verdictOK},
		{"exact and equal", virt, mk("rtt_small", 1, map[string]float64{"virt_us_per_op": 9575.5}, 0), mk("rtt_small", 1, map[string]float64{"virt_us_per_op": 9575.5}, 0), verdictOK},
		{"exact and better", virt, mk("rtt_small", 1, map[string]float64{"virt_us_per_op": 9575.5}, 0), mk("rtt_small", 1, map[string]float64{"virt_us_per_op": 9575.4}, 0), verdictChanged},
		{"other seed, within bound", virt, mk("rtt_small", 1, map[string]float64{"virt_us_per_op": 9575.5}, 0), mk("rtt_small", 2, map[string]float64{"virt_us_per_op": 9575.4}, 0), verdictOK},
		{"socket is never exact", virt, mk("socket_rtt", 1, map[string]float64{"virt_us_per_op": 8300}, 0), mk("socket_rtt", 1, map[string]float64{"virt_us_per_op": 8301}, 0), verdictOK},
	} {
		if got, _, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	base := measure(options{workload: "rtt_small", seed: 3, seconds: 0.01, scale: tiny})
	if !base.Correct {
		t.Fatalf("problems: %v", base.Problems)
	}
	if err := writeSet(dir, false, []result{base}); err != nil {
		t.Fatal(err)
	}
	same := dir + "/" + setFileName(false)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", same, same}, &stdout, &stderr); code != 0 {
		t.Errorf("a set against itself: exit code %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, d := range endToEnd {
		if !strings.Contains(stdout.String(), d.Name) {
			t.Errorf("no row for %s in\n%s", d.Name, stdout.String())
		}
	}

	moved := base
	moved.Metrics = map[string]metricValue{}
	for name, m := range base.Metrics {
		moved.Metrics[name] = m
	}
	m := moved.Metrics["frames_per_op"]
	m.Value *= 1.0001
	moved.Metrics["frames_per_op"] = m
	other := t.TempDir()
	if err := writeSet(other, false, []result{moved}); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-compare", same, other + "/" + setFileName(false)}, &stdout, &stderr); code != 1 {
		t.Errorf("a moved exact metric: exit code %d, want 1\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), string(verdictChanged)) {
		t.Errorf("no %q row in\n%s", verdictChanged, stdout.String())
	}
}

// TestSweepPoolIsClean simulates every run chaos_sweep can draw: none may
// break an invariant, or the workload would fail on some seeds for reasons
// that are not the measured change's.
func TestSweepPoolIsClean(t *testing.T) {
	in := generate(1)
	for i := 0; i < sweepPool; i++ {
		spec := in.sweepSpec(i, sweepNodes, true)
		if d := spec.Horizon - sweepHorizon; d < -sweepHorizon/10 || d > sweepHorizon/10 {
			t.Fatalf("pool entry %d: horizon %v", i, spec.Horizon)
		}
		rep, err := sweep.Run(spec, hostCPUs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Runs {
			if len(r.Violations) > 0 || r.Err != "" {
				t.Errorf("%v, horizon %v: violations %v, error %q", r.Key, spec.Horizon, r.Violations, r.Err)
			}
		}
	}
}
