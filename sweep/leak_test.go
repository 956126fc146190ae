package sweep_test

import (
	"runtime"
	"testing"
	"time"

	"soda/sweep"
)

// TestSweepLeavesNoGoroutines is the regression test for runs that kept
// their parked client processes alive after the sweep had reported them: a
// long sweep grew by every run's goroutines. Each run now ends its network
// once the results are read, on the sequential kernel and on a parallel
// coordinator's shards alike.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	specs := []sweep.Spec{{
		Scenario:  "fileserver",
		Seeds:     []int64{1, 2},
		PlanSeeds: []int64{0, 7},
		Nodes:     []int{3},
		Horizon:   2 * time.Second,
		Checks:    true,
	}, {
		Scenario:     "internet",
		Seeds:        []int64{1},
		Nodes:        []int{6},
		Horizon:      2 * time.Second,
		Segments:     3,
		ForwardDelay: 2 * time.Millisecond,
		ParWorkers:   2,
	}}
	base := runtime.NumGoroutine()
	for _, spec := range specs {
		if _, err := sweep.Run(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweeps, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
