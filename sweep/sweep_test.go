package sweep_test

import (
	"bytes"
	"testing"
	"time"

	"soda/internal/deltat"
	"soda/sweep"
)

// matrix32 is the acceptance matrix: 8 seeds × 2 plan columns (fault-free
// control + generated chaos) × 2 node counts = 32 runs, instrumented and
// checked, so the byte-identity claim covers profiles, violations and
// trace hashes alike.
func matrix32() sweep.Spec {
	return sweep.Spec{
		Scenario:   "fileserver",
		Seeds:      []int64{1, 2, 3, 4, 5, 6, 7, 8},
		PlanSeeds:  []int64{0, 5},
		Nodes:      []int{2, 3},
		Horizon:    2 * time.Second,
		Instrument: true,
		Checks:     true,
	}
}

// TestParallelSweepIsByteIdenticalToSequential is the load-bearing test of
// the sweep engine: sharding a >=32-run matrix across workers must produce
// the very same report — per-run trace hashes, per-run profiles, aggregate
// digests, every byte — as running the matrix one run at a time.
func TestParallelSweepIsByteIdenticalToSequential(t *testing.T) {
	spec := matrix32()
	seq, err := sweep.Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Runs) != 32 {
		t.Fatalf("matrix expanded to %d runs, want 32", len(seq.Runs))
	}
	for _, workers := range []int{4, 8} {
		par, err := sweep.Run(spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := seq.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := par.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			for i := range seq.Runs {
				if seq.Runs[i].TraceHash != par.Runs[i].TraceHash {
					t.Errorf("run %v: trace hash %s (seq) != %s (%d workers)",
						seq.Runs[i].Key, seq.Runs[i].TraceHash, par.Runs[i].TraceHash, workers)
				}
			}
			t.Fatalf("parallel sweep (%d workers) not byte-identical to sequential", workers)
		}
	}
}

// TestSweepRunsAreMeaningful guards against the byte-identity test passing
// vacuously: the matrix must produce real traffic, complete cleanly, and
// the chaos columns must actually exercise the fault machinery.
func TestSweepRunsAreMeaningful(t *testing.T) {
	rep, err := sweep.Run(matrix32(), 8)
	if err != nil {
		t.Fatal(err)
	}
	lost := uint64(0)
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Errorf("run %v failed: %s", r.Key, r.Err)
		}
		if r.FramesSent == 0 {
			t.Errorf("run %v sent no frames", r.Key)
		}
		for _, v := range r.Violations {
			t.Errorf("run %v violation: %s", r.Key, v)
		}
		if r.Profile == nil {
			t.Errorf("run %v: instrumented sweep recorded no profile", r.Key)
		}
		if r.Key.PlanSeed != 0 {
			lost += r.FramesLost
		}
	}
	if lost == 0 {
		t.Error("chaos columns lost no frames; generated plans did nothing")
	}
	if rep.Aggregate.Runs != 32 || rep.Aggregate.Failed != 0 {
		t.Errorf("aggregate = %+v, want 32 runs, 0 failed", rep.Aggregate)
	}
	if rep.Aggregate.RequestP50US.Count == 0 {
		t.Error("no REQUEST latency digest despite instrumentation")
	}
	if rep.Aggregate.FramesSent.Max < rep.Aggregate.FramesSent.Min {
		t.Error("frames-sent digest is inverted")
	}
}

// TestReportIsKeyOrdered pins the merge rule: report order is run-key
// order, never completion order.
func TestReportIsKeyOrdered(t *testing.T) {
	spec := matrix32()
	keys, err := spec.Keys()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if rep.Runs[i].Key != k {
			t.Fatalf("run %d has key %v, want %v", i, rep.Runs[i].Key, k)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := sweep.Spec{Scenario: "fileserver", Seeds: []int64{1}, Nodes: []int{2}, Horizon: time.Second}
	cases := []struct {
		name   string
		mutate func(*sweep.Spec)
	}{
		{"unknown scenario", func(s *sweep.Spec) { s.Scenario = "nope" }},
		{"no seeds", func(s *sweep.Spec) { s.Seeds = nil }},
		{"no nodes", func(s *sweep.Spec) { s.Nodes = nil }},
		{"zero horizon", func(s *sweep.Spec) { s.Horizon = 0 }},
		{"too few nodes", func(s *sweep.Spec) { s.Nodes = []int{1} }},
		{"plan with short horizon", func(s *sweep.Spec) {
			s.PlanSeeds = []int64{3}
			s.Horizon = 100 * time.Millisecond
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			if _, err := sweep.Run(spec, 1); err == nil {
				t.Fatal("invalid spec accepted")
			}
		})
	}
	if _, err := sweep.Run(base, 1); err != nil {
		t.Fatalf("valid base spec rejected: %v", err)
	}
}

// TestPhilosophersScenario covers the second built-in on its minimum and
// a larger ring, fault-free, with the checkers armed.
func TestPhilosophersScenario(t *testing.T) {
	rep, err := sweep.Run(sweep.Spec{
		Scenario: "philosophers",
		Seeds:    []int64{1, 2},
		Nodes:    []int{4, 6},
		Horizon:  2 * time.Second,
		Checks:   true,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Errorf("run %v failed: %s", r.Key, r.Err)
		}
		if r.FramesSent == 0 {
			t.Errorf("run %v sent no frames", r.Key)
		}
		for _, v := range r.Violations {
			t.Errorf("run %v violation: %s", r.Key, v)
		}
		if r.Unresolved != 0 {
			t.Errorf("run %v left %d requests unresolved", r.Key, r.Unresolved)
		}
	}
}

// TestBulkTransferScenario covers the windowed bulk workload (DESIGN.md
// §12) with a fault-free control column and a generated chaos column.
// Every run must resolve all requests and pass the invariant checkers.
func TestBulkTransferScenario(t *testing.T) {
	rep, err := sweep.Run(sweep.Spec{
		Scenario:  "bulktransfer",
		Seeds:     []int64{1, 2},
		PlanSeeds: []int64{0, 5},
		Nodes:     []int{2, 3},
		Horizon:   2 * time.Second,
		Checks:    true,
		Window:    8,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Errorf("run %v failed: %s", r.Key, r.Err)
		}
		if r.FramesSent == 0 {
			t.Errorf("run %v sent no frames", r.Key)
		}
		for _, v := range r.Violations {
			t.Errorf("run %v violation: %s", r.Key, v)
		}
		if r.Unresolved != 0 {
			t.Errorf("run %v left %d requests unresolved", r.Key, r.Unresolved)
		}
	}
}

// TestWindowRangeValidation: the transport clamps its window to
// deltat.MaxWindowMessages, and the report echoes Spec.Window verbatim, so
// a spec outside [0, clamp] must be rejected rather than run at a depth the
// report then misstates.
func TestWindowRangeValidation(t *testing.T) {
	spec := sweep.Spec{
		Scenario: "bulktransfer", Seeds: []int64{1}, Nodes: []int{2},
		Horizon: time.Second,
	}
	for _, w := range []int{-1, deltat.MaxWindowMessages + 1, 64} {
		spec.Window = w
		if _, err := spec.Keys(); err == nil {
			t.Errorf("window %d accepted", w)
		}
	}
	for _, w := range []int{0, 1, 8, deltat.MaxWindowMessages} {
		spec.Window = w
		if _, err := spec.Keys(); err != nil {
			t.Errorf("window %d rejected: %v", w, err)
		}
	}
}

// TestSegmentedSweepDeterministic runs the internet scenario on a
// three-segment star and pins the engine's core guarantees there too:
// worker count never changes a byte, every run completes, and the
// invariant checkers stay clean across gateways.
func TestSegmentedSweepDeterministic(t *testing.T) {
	spec := sweep.Spec{
		Scenario: "internet",
		Seeds:    []int64{1, 2},
		Nodes:    []int{6},
		Horizon:  2 * time.Second,
		Checks:   true,
		Segments: 3,
	}
	seq, err := sweep.Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := seq.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("segmented sweep depends on worker count")
	}
	if seq.Aggregate.Failed != 0 || seq.Aggregate.TotalViolations != 0 {
		t.Fatalf("segmented sweep unhealthy: %+v", seq.Aggregate)
	}
	if seq.Aggregate.FramesSent.Min == 0 {
		t.Fatal("a segmented run sent no frames; scenario inert")
	}
	// A negative segment count is a spec error, not a silent default.
	bad := spec
	bad.Segments = -1
	if _, err := sweep.Run(bad, 1); err == nil {
		t.Fatal("negative Segments accepted")
	}
}
