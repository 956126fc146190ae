// Smoke test: every program under examples/ must build and run to a clean
// exit. The examples double as executable documentation, so a refactor that
// silently breaks one is a doc regression even when the library tests stay
// green. Each example is deterministic (seeded simulation), so a clean exit
// is a meaningful, reproducible signal, not a flaky one — and the full
// output is pinned as a golden transcript, so a scheduler or bus change
// that perturbs event ordering fails here, at its first line, before it ships.
package soda_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"soda/internal/golden"
)

func TestExamplesRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke test compiles five binaries; skipped in -short")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		found++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./"+filepath.Join("examples", name))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s exited dirty: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("example %s produced no output", name)
			}
			golden.Check(t, "example_"+name, string(out))
		})
	}
	if found == 0 {
		t.Fatal("no example directories found")
	}
}
