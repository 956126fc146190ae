package sweep_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"soda/internal/golden"
	"soda/sweep"
)

// TestMetamorphicTraceHashes extends the obs/ bit-identical-run guarantees
// to the sweep layer: for the same matrix, the per-run trace hashes must
// be identical across all four execution modes —
//
//	bare sequential, bare parallel, instrumented sequential,
//	instrumented parallel
//
// i.e. neither attaching the full observability stack (tracer + metrics +
// checkers) nor sharding across workers may perturb a single frame of any
// run.
func TestMetamorphicTraceHashes(t *testing.T) {
	base := sweep.Spec{
		Scenario:  "philosophers",
		Seeds:     []int64{1, 7},
		PlanSeeds: []int64{0, 11},
		Nodes:     []int{5},
		Horizon:   2 * time.Second,
	}
	instrumented := base
	instrumented.Instrument = true
	instrumented.Checks = true

	type mode struct {
		name    string
		spec    sweep.Spec
		workers int
	}
	modes := []mode{
		{"bare/sequential", base, 1},
		{"bare/parallel", base, 4},
		{"instrumented/sequential", instrumented, 1},
		{"instrumented/parallel", instrumented, 4},
	}

	hashes := make([][]string, len(modes))
	for i, m := range modes {
		rep, err := sweep.Run(m.spec, m.workers)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if len(rep.Runs) != 4 {
			t.Fatalf("%s: %d runs, want 4", m.name, len(rep.Runs))
		}
		hs := make([]string, len(rep.Runs))
		for j, r := range rep.Runs {
			if r.Err != "" {
				t.Fatalf("%s: run %v failed: %s", m.name, r.Key, r.Err)
			}
			if r.FramesSent == 0 {
				t.Fatalf("%s: run %v sent no frames", m.name, r.Key)
			}
			hs[j] = r.TraceHash
		}
		hashes[i] = hs
	}
	for i := 1; i < len(modes); i++ {
		for j := range hashes[0] {
			if hashes[i][j] != hashes[0][j] {
				t.Errorf("run %d: %s hash %s != %s hash %s",
					j, modes[i].name, hashes[i][j], modes[0].name, hashes[0][j])
			}
		}
	}
}

// TestWindowOneTraceGoldens pins the transport's backward-compatibility
// contract (DESIGN.md §11): with the sliding window off — the default, or
// Window set to 1 explicitly — every run's frame log is byte-identical to
// its golden, recorded before the windowed engine existed. A stop-and-wait
// node must emit not one different frame, draw not one extra random
// number. If this test fails, the windowed code has leaked into the
// Window<=1 path; do not re-record the goldens without understanding why.
func TestWindowOneTraceGoldens(t *testing.T) {
	for _, scenario := range []string{"fileserver", "philosophers"} {
		for _, window := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/w%d", scenario, window), func(t *testing.T) {
				spec := sweep.Spec{
					Scenario:  scenario,
					Seeds:     []int64{1, 7},
					PlanSeeds: []int64{0, 11},
					Nodes:     []int{5},
					Horizon:   2 * time.Second,
					Window:    window,
				}
				keys, err := spec.Keys()
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range keys {
					var log strings.Builder
					r := sweep.RunOne(spec, key, &log)
					if r.Err != "" {
						t.Fatalf("run %v failed: %s", key, r.Err)
					}
					golden.Check(t, "window_one_"+strings.ReplaceAll(key.String(), "/", "_"), log.String())
				}
			})
		}
	}
}

// TestWindowedSweepDeterminism: a windowed sweep is not expected to match
// the stop-and-wait goldens — it is expected to be exactly as deterministic.
// Same spec, same hashes, sequential or parallel, with the faults invariant
// checkers armed and silent throughout (chaos columns included).
func TestWindowedSweepDeterminism(t *testing.T) {
	spec := sweep.Spec{
		Scenario:   "fileserver",
		Seeds:      []int64{1, 7},
		PlanSeeds:  []int64{0, 11},
		Nodes:      []int{5},
		Horizon:    2 * time.Second,
		Window:     4,
		Instrument: true,
		Checks:     true,
	}
	seq, err := sweep.Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep.Run(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range seq.Runs {
		if seq.Runs[j].Err != "" {
			t.Fatalf("run %v failed: %s", seq.Runs[j].Key, seq.Runs[j].Err)
		}
		if v := seq.Runs[j].Violations; len(v) > 0 {
			t.Errorf("run %v: invariant violations under window=4: %v", seq.Runs[j].Key, v)
		}
		if seq.Runs[j].TraceHash != par.Runs[j].TraceHash {
			t.Errorf("run %v: sequential hash %s != parallel hash %s",
				seq.Runs[j].Key, seq.Runs[j].TraceHash, par.Runs[j].TraceHash)
		}
		if seq.Runs[j].FramesSent == 0 {
			t.Errorf("run %v sent no frames", seq.Runs[j].Key)
		}
	}
}
