package soda_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"soda"
	"soda/faults"
	"soda/obs"
)

// The parallel determinism battery: every test here runs the same seeded
// scenario under the sequential scheduler and under WithParallelSim, and
// requires byte-identical artifacts — trace bytes, observability profiles,
// invariant verdicts. Parallelism must be a pure wall-clock optimization.

// parTopology is the battery's internetwork: a four-segment star whose
// positive ForwardDelay is the conservative lookahead.
func parTopology() soda.Topology {
	topo := soda.StarTopology(4)
	topo.ForwardDelay = 2 * time.Millisecond
	return topo
}

// parChaosPlan arms one fault of every routing class the parallel scheduler
// distinguishes: segment-scoped window events (judged on the owning shard),
// node crash/reboot (scheduled into the owning shard's windows), and
// gateway chaos (global kernel, exclusive steps).
func parChaosPlan() faults.Plan {
	seg1, seg2 := 1, 2
	return faults.Plan{Events: []faults.Event{
		{Kind: faults.Loss, Segment: &seg1, Prob: 0.2,
			Start: faults.Duration(2 * time.Second), Stop: faults.Duration(5 * time.Second)},
		{Kind: faults.Delay, Segment: &seg2,
			Delay: faults.Duration(500 * time.Microsecond), Jitter: faults.Duration(300 * time.Microsecond),
			Start: faults.Duration(time.Second), Stop: faults.Duration(6 * time.Second)},
		{Kind: faults.Crash, Node: 3, Start: faults.Duration(3 * time.Second)},
		{Kind: faults.Reboot, Node: 3, Program: "echo", Start: faults.Duration(6 * time.Second)},
		{Kind: faults.GatewayCrash, Gateway: 2, Start: faults.Duration(4 * time.Second)},
		{Kind: faults.GatewayReboot, Gateway: 2, Start: faults.Duration(5 * time.Second)},
	}}
}

// parArtifacts is everything a run must reproduce byte for byte.
type parArtifacts struct {
	trace      string
	stream     *streamLog
	profile    string
	violations []string
	unresolved int
	stats      soda.ParStats
}

// streamLog is an all-kinds subscriber: it renders every event of the
// network's stream as one line, and records where the stream breaks its
// order — an event earlier in virtual time than the one before it, or a
// delivery no transmit of the same source and size preceded.
type streamLog struct {
	text     bytes.Buffer
	kinds    map[byte]int
	last     time.Duration
	sent     map[wireKey]bool
	disorder []string
}

// wireKey names a frame the way both wire kinds can see it. The kind byte
// is left out: a corrupted delivery may have lost it.
type wireKey struct {
	src  soda.MID
	size int
}

func newStreamLog() *streamLog {
	return &streamLog{kinds: make(map[byte]int), sent: make(map[wireKey]bool)}
}

func (l *streamLog) subscriber() soda.Subscriber {
	return soda.Subscriber{
		Kernel:    func(e soda.KernelEvent) { l.add('K', e.At, fmt.Sprintf("%+v", e)) },
		Transport: func(e soda.TransportEvent) { l.add('P', e.At, fmt.Sprintf("%+v", e)) },
		Transmit: func(e soda.TransmitEvent) {
			l.sent[wireKey{e.Src, e.Size}] = true
			l.add('T', e.At, fmt.Sprintf("%+v", e))
		},
		Delivery: func(e soda.DeliveryEvent) {
			if !l.sent[wireKey{e.Src, len(e.Raw)}] {
				l.disorder = append(l.disorder, fmt.Sprintf("t=%v: delivery %d->%d of %d bytes before any transmit of it", e.At, e.Src, e.Dst, len(e.Raw)))
			}
			l.add('D', e.At, fmt.Sprintf("%d->%d corrupted=%v %x", e.Src, e.Dst, e.Corrupted, e.Raw))
		},
	}
}

func (l *streamLog) add(kind byte, at time.Duration, body string) {
	if at < l.last {
		l.disorder = append(l.disorder, fmt.Sprintf("%c event at %v after one at %v", kind, at, l.last))
	}
	l.last = at
	l.kinds[kind]++
	fmt.Fprintf(&l.text, "%c %v %s\n", kind, at, body)
}

// runSegmentedChaos executes the battery scenario — 12 nodes over four
// segments, echo servers plus request loops, under the chaos plan with the
// checker, tracer and metrics all attached — and collects its artifacts.
func runSegmentedChaos(t *testing.T, extra ...soda.Option) parArtifacts {
	t.Helper()
	opts := append([]soda.Option{
		soda.WithSeed(11),
		soda.WithTopology(parTopology()),
		soda.WithFaultPlan(parChaosPlan()),
		soda.WithInvariantChecks(),
		soda.WithMetrics(obs.NewRegistry()),
		soda.WithTracer(obs.NewTracer()),
	}, extra...)
	nw := soda.NewNetwork(opts...)
	var trace bytes.Buffer
	nw.Trace(&trace)
	stream := newStreamLog()
	nw.Subscribe(stream.subscriber())
	nw.Register("echo", echo("hub"))
	nw.Register("driver", soda.Program{
		Task: func(c *soda.Client) {
			for i := 0; ; i++ {
				if srv, ok := c.Discover(pattern); ok {
					c.BExchange(srv, soda.OK, []byte(fmt.Sprintf("m%d", i)), 64)
				}
				c.Hold(120 * time.Millisecond)
			}
		},
	})
	for mid := 1; mid <= 12; mid++ {
		nw.MustAddNode(soda.MID(mid))
	}
	for mid := 1; mid <= 4; mid++ {
		nw.MustBoot(soda.MID(mid), "echo")
	}
	for mid := 5; mid <= 12; mid++ {
		nw.MustBoot(soda.MID(mid), "driver")
	}
	if err := nw.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	prof, err := json.Marshal(nw.Profile("par-battery"))
	if err != nil {
		t.Fatal(err)
	}
	ch := nw.Invariants()
	return parArtifacts{
		trace:      trace.String(),
		stream:     stream,
		profile:    string(prof),
		violations: ch.Finish(),
		unresolved: len(ch.Unresolved()),
		stats:      nw.ParStats(),
	}
}

// firstDiff renders the first line where two multi-line strings diverge.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  seq: %s\n  par: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: seq %d lines, par %d lines", len(al), len(bl))
}

// parChaosTraceHash pins the FNV-64a hash of the battery scenario's trace,
// recorded under the sequential hierarchical timer-wheel scheduler — the
// same discipline exampleOutputHashes uses for the examples. The parallel
// scheduler must replay this exact golden for every worker count: a
// divergence here that TestParallelMatchesSequentialChaos misses means the
// SEQUENTIAL scheduler moved, i.e. parallelism support itself perturbed the
// wire. Re-record only with an intentional ordering change.
const parChaosTraceHash uint64 = 0xae8eba29c43cd2f9

// TestParallelGoldenReplay is the differential golden gate: sequential and
// parallel runs must both reproduce the pinned timer-wheel-era trace hash,
// so the scheduler refactor is provably invisible end to end.
func TestParallelGoldenReplay(t *testing.T) {
	hash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	seq := runSegmentedChaos(t)
	if got := hash(seq.trace); got != parChaosTraceHash {
		t.Fatalf("sequential trace hash = %#x, want golden %#x — the sequential scheduler itself moved; if intentional, re-record",
			got, parChaosTraceHash)
	}
	for _, workers := range []int{2, 8} {
		par := runSegmentedChaos(t, soda.WithParallelSim(workers))
		if got := hash(par.trace); got != parChaosTraceHash {
			t.Fatalf("workers=%d: trace hash = %#x, want golden %#x\nfirst divergence from sequential: %s",
				workers, got, parChaosTraceHash, firstDiff(seq.trace, par.trace))
		}
	}
}

// TestParallelMatchesSequentialChaos is the tentpole determinism gate: the
// chaos scenario's trace, profile and invariant verdict must be
// byte-identical across worker counts and dispatch shuffles.
func TestParallelMatchesSequentialChaos(t *testing.T) {
	seq := runSegmentedChaos(t)
	if seq.trace == "" {
		t.Fatal("sequential run produced no trace; comparison would prove nothing")
	}
	if seq.stats != (soda.ParStats{}) {
		t.Fatalf("sequential run reports parallel stats: %+v", seq.stats)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, shuffle := range []int64{0, 42} {
			if workers == 1 && shuffle != 0 {
				continue
			}
			name := fmt.Sprintf("workers=%d shuffle=%d", workers, shuffle)
			par := runSegmentedChaos(t,
				soda.WithParallelSim(workers), soda.WithParallelShuffle(shuffle))
			if par.trace != seq.trace {
				t.Fatalf("%s: trace diverged at %s", name, firstDiff(seq.trace, par.trace))
			}
			if a, b := seq.stream.text.String(), par.stream.text.String(); a != b {
				t.Fatalf("%s: event stream diverged at %s", name, firstDiff(a, b))
			}
			if par.profile != seq.profile {
				t.Fatalf("%s: profile diverged at %s", name, firstDiff(seq.profile, par.profile))
			}
			if !reflect.DeepEqual(par.violations, seq.violations) || par.unresolved != seq.unresolved {
				t.Fatalf("%s: invariant verdict diverged: %v/%d vs %v/%d",
					name, par.violations, par.unresolved, seq.violations, seq.unresolved)
			}
			if workers == 1 {
				continue // sequential execution path; no coordinator stats
			}
			st := par.stats
			if st.FallbackSequential {
				t.Fatalf("%s: fell back to sequential", name)
			}
			if st.Windows == 0 || st.Committed == 0 || st.Staged == 0 || st.GatedOps == 0 {
				t.Fatalf("%s: parallel machinery inert: %+v", name, st)
			}
			if st.ExclusiveSteps == 0 {
				t.Fatalf("%s: gateway chaos should have forced exclusive steps: %+v", name, st)
			}
		}
	}
}

// TestEventStreamOrder checks the battery's whole event stream, all four
// kinds in one order: it never goes back in virtual time, and every
// delivery follows a transmit of its frame. The parallel run must agree;
// TestParallelMatchesSequentialChaos pins it byte for byte.
func TestEventStreamOrder(t *testing.T) {
	for _, run := range []struct {
		name string
		opts []soda.Option
	}{{"sequential", nil}, {"parallel", []soda.Option{soda.WithParallelSim(2)}}} {
		l := runSegmentedChaos(t, run.opts...).stream
		for _, k := range []byte{'K', 'P', 'T', 'D'} {
			if l.kinds[k] == 0 {
				t.Errorf("%s: no %c events in the stream; the order check would prove nothing", run.name, k)
			}
		}
		if len(l.disorder) > 0 {
			t.Errorf("%s: %d order breaks, first: %s", run.name, len(l.disorder), l.disorder[0])
		}
	}
}
