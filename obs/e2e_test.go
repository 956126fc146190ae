// End-to-end observability tests: these drive the soda facade (which
// imports package obs), so they live in the external test package.
package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"soda"
	"soda/apps/philo"
	"soda/faults"
	"soda/internal/golden"
	"soda/obs"
	"soda/timesrv"
)

func d(v time.Duration) faults.Duration { return faults.Duration(v) }

// philoPlan is the chaos acceptance scenario: partition, asymmetric loss,
// corruption, and a detector crash/reboot cycle.
func philoPlan() faults.Plan {
	return faults.Plan{Events: []faults.Event{
		{Kind: faults.Partition, Start: d(5 * time.Second), Stop: d(15 * time.Second),
			Groups: [][]faults.MID{{1, 2, 3}, {4, 5, 6, 7}}},
		{Kind: faults.Loss, Start: 0, Stop: d(20 * time.Second), Dst: 3, Prob: 0.10},
		{Kind: faults.Corrupt, Start: 0, Stop: d(20 * time.Second), Prob: 0.05},
		{Kind: faults.Crash, Start: d(21 * time.Second), Node: 7},
		{Kind: faults.Reboot, Start: d(22 * time.Second), Node: 7, Program: "detector"},
	}}
}

// runPhilo runs the dining philosophers for 32s of virtual time with the
// given extra options, killing every client at 28s so the run drains.
func runPhilo(t *testing.T, seed int64, opts ...soda.Option) *soda.Network {
	t.Helper()
	ring := []soda.MID{2, 3, 4, 5, 6}
	nw := soda.NewNetwork(append([]soda.Option{soda.WithSeed(seed)}, opts...)...)
	nw.Register("timesrv", timesrv.Program(16))
	nw.MustAddNode(1)
	nw.MustBoot(1, "timesrv")
	for i, mid := range ring {
		left := ring[(i-1+len(ring))%len(ring)]
		name := fmt.Sprintf("phil%d", i)
		nw.Register(name, philo.Philosopher(left, 0, 50*time.Millisecond, 30*time.Millisecond, nil))
		nw.MustAddNode(mid)
		nw.MustBoot(mid, name)
	}
	nw.Register("detector", philo.Detector(ring, 200*time.Millisecond, nil))
	nw.MustAddNode(7)
	nw.MustBoot(7, "detector")
	nw.At(28*time.Second, func() {
		for _, m := range []soda.MID{7, 2, 3, 4, 5, 6, 1} {
			nw.Node(m).Die()
		}
	})
	if err := nw.Run(32 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	return nw
}

// TestTraceExportIsByteDeterministic: same seed + same fault plan ⇒
// byte-identical Chrome trace export across two runs.
func TestTraceExportIsByteDeterministic(t *testing.T) {
	export := func() []byte {
		tr := obs.NewTracer()
		runPhilo(t, 42, soda.WithFaultPlan(philoPlan()), soda.WithTracer(tr))
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("trace exports differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestTracerDoesNotPerturbTheRun: attaching the full observability stack
// must leave the bus traffic bit-identical to a bare run (zero-overhead
// contract — observation never changes behavior).
func TestTracerDoesNotPerturbTheRun(t *testing.T) {
	run := func(opts ...soda.Option) (string, uint64) {
		var trace strings.Builder
		ring := []soda.MID{2, 3, 4, 5, 6}
		nw := soda.NewNetwork(append([]soda.Option{soda.WithSeed(9), soda.WithLoss(0.05)}, opts...)...)
		nw.Trace(&trace)
		nw.Register("timesrv", timesrv.Program(16))
		nw.MustAddNode(1)
		nw.MustBoot(1, "timesrv")
		for i, mid := range ring {
			left := ring[(i-1+len(ring))%len(ring)]
			name := fmt.Sprintf("phil%d", i)
			nw.Register(name, philo.Philosopher(left, 0, 50*time.Millisecond, 30*time.Millisecond, nil))
			nw.MustAddNode(mid)
			nw.MustBoot(mid, name)
		}
		if err := nw.Run(5 * time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		return trace.String(), nw.Stats().FramesSent
	}
	bareTrace, bareFrames := run()
	obsTrace, obsFrames := run(
		soda.WithTracer(obs.NewTracerWith(obs.TraceConfig{Wire: true})),
		soda.WithMetrics(obs.NewRegistry()))
	if bareFrames == 0 {
		t.Fatal("no frames sent")
	}
	if d := golden.Diff(bareTrace, obsTrace); d != "" || bareFrames != obsFrames {
		t.Fatalf("observability perturbed the run (frames %d/%d) at %s", bareFrames, obsFrames, d)
	}
}

// TestSpansAreCompleteAndCausal: on a drained fault-free run every issued
// REQUEST yields a span whose hops exist and are causally ordered.
func TestSpansAreCompleteAndCausal(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	runPhilo(t, 1, soda.WithTracer(tr), soda.WithMetrics(reg))
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans assembled")
	}
	complete := 0
	for _, s := range spans {
		if !s.Done {
			continue // killed mid-flight at the 28s cutoff
		}
		complete++
		if s.End < s.Issue {
			t.Errorf("span %v: end %v before issue %v", s.Sig, s.End, s.Issue)
		}
		if s.HasArrival {
			if !s.HasWireArrival {
				t.Errorf("span %v: handler arrival without wire arrival", s.Sig)
			} else if s.Arrival < s.WireArrival {
				t.Errorf("span %v: arrival %v before wire %v", s.Sig, s.Arrival, s.WireArrival)
			}
			if s.WireArrival < s.Issue {
				t.Errorf("span %v: wire arrival %v before issue %v", s.Sig, s.WireArrival, s.Issue)
			}
		}
		if s.HasAccept && s.Accept < s.Arrival {
			t.Errorf("span %v: accept %v before arrival %v", s.Sig, s.Accept, s.Arrival)
		}
	}
	if complete == 0 {
		t.Fatal("no span ever completed")
	}
	// The registry must agree with the tracer on the request population.
	sum := reg.Summary(obs.PrimRequest)
	if sum.Count == 0 {
		t.Fatal("registry recorded no REQUEST latencies")
	}
	if sum.P50US > sum.P99US || sum.MinUS > sum.MaxUS || sum.MaxUS < sum.MeanUS {
		t.Errorf("inconsistent summary: %+v", sum)
	}
}

// TestChromeTraceIsWellFormed: the export parses as the Chrome trace-event
// JSON object format with one paired async begin/end per request span.
func TestChromeTraceIsWellFormed(t *testing.T) {
	tr := obs.NewTracer()
	runPhilo(t, 3, soda.WithTracer(tr))
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	begins, ends := map[string]int{}, map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			begins[ev.ID]++
		case "e":
			ends[ev.ID]++
		case "M", "n", "i", "X":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.TS < 0 {
			t.Errorf("negative timestamp on %q", ev.Name)
		}
	}
	if len(begins) != len(tr.Spans()) {
		t.Errorf("%d begin ids for %d spans", len(begins), len(tr.Spans()))
	}
	for id, n := range begins {
		if n != 1 || ends[id] != 1 {
			t.Errorf("span %s: %d begins, %d ends; want exactly 1/1", id, n, ends[id])
		}
	}
}

// TestMetricsSeeRetransmissionsUnderLoss: a lossy run must surface
// transport recovery in both the registry and the bus counters.
func TestMetricsSeeRetransmissionsUnderLoss(t *testing.T) {
	reg := obs.NewRegistry()
	nw := runPhilo(t, 5, soda.WithLoss(0.15), soda.WithMetrics(reg))
	st := nw.Stats()
	if st.Retransmissions == 0 {
		t.Error("bus counted no retransmissions at 15% loss")
	}
	var retrans, acks uint64
	for _, nc := range reg.Nodes() {
		retrans += nc.Retransmits
		acks += nc.AcksRx
	}
	if retrans != st.Retransmissions {
		t.Errorf("registry retransmits %d != bus counter %d", retrans, st.Retransmissions)
	}
	if acks == 0 {
		t.Error("no acknowledgements observed")
	}
	var piggy uint64
	for _, nc := range reg.Nodes() {
		piggy += nc.PiggybackAcks
	}
	if piggy != st.PiggybackedAcks {
		t.Errorf("registry piggybacks %d != bus counter %d", piggy, st.PiggybackedAcks)
	}
}

// TestProfileExport: Network.Profile round-trips through JSON with the
// expected content, deterministically.
func TestProfileExport(t *testing.T) {
	export := func() []byte {
		reg := obs.NewRegistry()
		nw := runPhilo(t, 8, soda.WithMetrics(reg))
		p := nw.Profile("philosophers")
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("profile export not deterministic")
	}
	var p obs.Profile
	if err := json.Unmarshal(a, &p); err != nil {
		t.Fatalf("profile is not valid JSON: %v", err)
	}
	if p.Scenario != "philosophers" || p.VirtualUS <= 0 {
		t.Errorf("profile header wrong: %+v", p)
	}
	if p.Primitives[obs.PrimRequest].Count == 0 {
		t.Error("profile carries no REQUEST digest")
	}
	if p.Bus == nil || p.Bus.FramesSent == 0 {
		t.Error("profile carries no bus counters")
	}
}
