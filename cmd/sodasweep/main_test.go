package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"soda/scenario"
	"soda/sweep"
)

// TestEveryEntrySweeps is the catalogue's smoke run through the sweep
// CLI: one seed of every entry at its own size, checkers armed, with no
// failed run and no violation.
func TestEveryEntrySweeps(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			sc, _ := scenario.Lookup(name)
			var out, log bytes.Buffer
			args := []string{"-scenario", name, "-seeds", "1", "-nodes", strconv.Itoa(sc.Nodes), "-horizon", "2s", "-workers", "1"}
			if err := run(args, &out, &log); err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			var rep sweep.Report
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			if a := rep.Aggregate; a.Runs != 1 || a.Failed != 0 || a.TotalViolations != 0 || !rep.Spec.Checks {
				t.Errorf("aggregate %+v (checks %v), want one clean checked run", a, rep.Spec.Checks)
			}
		})
	}
}

// TestRejectsBadMatrices: a fixed-layout entry names the size it needs,
// and a malformed -nodes list is an error.
func TestRejectsBadMatrices(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "dining", "-nodes", "4"}, "fixed layout of 5 nodes"},
		{[]string{"-scenario", "fileserver", "-nodes", "1"}, "needs at least 2 nodes"},
		{[]string{"-nodes", "3,x"}, "bad -nodes"},
	} {
		err := run(c.args, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("sodasweep %s: error %v, want one containing %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

// TestWritesReportFile checks -out writes the same report stdout would.
func TestWritesReportFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	args := []string{"-scenario", "quickstart", "-seeds", "2", "-nodes", "2", "-plans", "1", "-horizon", "2s"}
	var stdout bytes.Buffer
	if err := run(args, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", path), &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, stdout.Bytes()) {
		t.Errorf("-out file differs from stdout (err %v)", err)
	}
}
