package scenario

import (
	"slices"
	"strings"
	"testing"
	"time"

	"soda"
)

// TestEveryEntryDrives installs every entry on a fresh simulated network,
// at its own size and (when it scales) one node larger, and drives it
// under its stop rule through its Check.
func TestEveryEntryDrives(t *testing.T) {
	for _, name := range Names() {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int{sc.Nodes}
		if sc.Scales {
			sizes = append(sizes, sc.Nodes+1)
		}
		for _, n := range sizes {
			run := sc.Build(n, 2*time.Second, nil)
			if len(run.Nodes) != n {
				t.Errorf("%s: layout of %d nodes, built for %d", name, len(run.Nodes), n)
			}
			nw := soda.NewNetwork(soda.WithInvariantChecks())
			run.Install(nw)
			if err := run.Drive(nw, 2*time.Second); err != nil {
				t.Errorf("%s/n%d: %v", name, n, err)
			}
			if v := nw.Invariants().Finish(); len(v) > 0 {
				t.Errorf("%s/n%d: violations %v", name, n, v)
			}
			nw.Close()
		}
	}
}

// TestStopRules pins which entries are count-based: the fixed sessions
// that both backends run to completion (the conformance set).
func TestStopRules(t *testing.T) {
	var counted []string
	for _, name := range Names() {
		sc, _ := Lookup(name)
		if sc.Build(sc.Nodes, time.Second, nil).Counted() {
			counted = append(counted, name)
			if sc.Scales || sc.Limit <= 0 {
				t.Errorf("%s: count-based entries are fixed-size with a limit", name)
			}
		}
	}
	if want := []string{"bootkill", "dining", "fileservice", "quickstart", "rendezvous"}; !slices.Equal(counted, want) {
		t.Errorf("count-based entries %v, want %v", counted, want)
	}
}

// TestDriveLimit: a count-based run that cannot finish in time fails with
// the limit named instead of running on.
func TestDriveLimit(t *testing.T) {
	sc, _ := Lookup("dining")
	nw := soda.NewNetwork()
	defer nw.Close()
	run := sc.Build(sc.Nodes, 0, nil)
	run.Install(nw)
	if err := run.Drive(nw, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "did not complete within 50ms") {
		t.Errorf("Drive past its limit: %v", err)
	}
}

// TestRegistry checks names are unique and sorted, and that lookups and
// sizes fail with errors that name what is wrong.
func TestRegistry(t *testing.T) {
	names := Names()
	if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Errorf("names %v are not sorted and unique", names)
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "fileservice") {
		t.Errorf("unknown lookup: %v", err)
	}
	dining, _ := Lookup("dining")
	if err := dining.Fits(4); err == nil || !strings.Contains(err.Error(), "fixed layout of 5 nodes") {
		t.Errorf("dining on 4 nodes: %v", err)
	}
	fs, _ := Lookup("fileserver")
	if err := fs.Fits(1); err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Errorf("fileserver on 1 node: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Build on a size the entry does not fit did not panic")
		}
	}()
	dining.Build(4, time.Second, nil)
}
