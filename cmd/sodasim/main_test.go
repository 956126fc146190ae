package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soda/scenario"
)

// sim runs sodasim with args on the simulator and returns its output.
func sim(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	s, err := open(parse(args), &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(); err != nil {
		t.Fatalf("sodasim %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// TestEveryEntryRunsOnTheSimulator is the catalogue's smoke run through
// the CLI: every entry exits cleanly, passes its Check where it has one,
// and leaves the invariant checkers green.
func TestEveryEntryRunsOnTheSimulator(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			if out := sim(t, "-scenario", name, "-check"); !strings.Contains(out, "invariants: all green") {
				t.Errorf("no green invariant verdict:\n%s", out)
			}
		})
	}
}

// TestNarrationIsDeterministic pins the file-service session's milestones
// and that a seed reproduces them byte for byte, under chaos too.
func TestNarrationIsDeterministic(t *testing.T) {
	out := sim(t, "-scenario", "fileservice")
	for _, want := range []string{
		"discovered file server on machine 1",
		`read "welcome to the SODA file service"`,
		`wrote and re-read "first entry"`,
		"session closed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	a := sim(t, "-scenario", "dining", "-chaos", "-seed", "3")
	if b := sim(t, "-scenario", "dining", "-chaos", "-seed", "3"); a != b || !strings.Contains(a, "chaos plan") {
		t.Errorf("two chaos runs of one seed differ:\n%s\n---\n%s", a, b)
	}
}

// TestObservabilityExports checks -trace, -metrics and -frames on the
// simulator.
func TestObservabilityExports(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	out := sim(t, "-scenario", "quickstart", "-trace", trace, "-metrics", "-frames")
	for _, want := range []string{"request spans written", "metrics:", "DISCOVER"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	checkTrace(t, trace)
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Errorf("trace is not JSON: %v", err)
	}
}

// TestFlagsBelongToTheirBackend pins that no flag is ignored silently: a
// flag the chosen backend cannot honour, an unknown backend, scenario or
// role, and a simulator-only entry on sockets are all errors.
func TestFlagsBelongToTheirBackend(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-net", "tcp", "-scenario", "fileservice", "-role", "fs", "-check"}, "-check does not apply to -net tcp"},
		{[]string{"-net", "tcp", "-scenario", "fileservice", "-role", "fs", "-loss", "0.1"}, "-loss does not apply"},
		{[]string{"-role", "fs"}, "-role does not apply to -net sim"},
		{[]string{"-net", "udp"}, `-net "udp"`},
		{[]string{"-scenario", "nope"}, `unknown scenario "nope"`},
		{[]string{"-net", "tcp", "-scenario", "fileservice", "-role", "nope"}, "roles: fs, client"},
		{[]string{"-net", "tcp", "-scenario", "crash", "-role", "client"}, "no socket roles"},
		{[]string{"-net", "tcp", "-scenario", "fileservice", "-role", "fs", "-peers", "x"}, "bad -peers entry"},
		{[]string{"-faultplan", "/nonexistent/plan.json"}, "no such file"},
	} {
		_, err := open(parse(c.args), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("sodasim %s: error %v, want one containing %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

// TestSocketRoles runs the documented two-terminal demo — both roles of
// the file-service entry, each as its own socket network on 127.0.0.1:0 —
// through the same open/run path as the command, with the observability
// flags on.
func TestSocketRoles(t *testing.T) {
	if testing.Short() {
		t.Skip("socket legs are skipped in -short: they open real sockets and run on the wall clock")
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	var fsOut, clientOut bytes.Buffer
	fs, err := open(parse([]string{"-net", "tcp", "-scenario", "fileservice", "-role", "fs", "-trace", trace, "-duration", "20s"}), &fsOut)
	if err != nil {
		t.Fatal(err)
	}
	client, err := open(parse([]string{"-net", "tcp", "-scenario", "fileservice", "-role", "client", "-metrics", "-duration", "20s"}), &clientOut)
	if err != nil {
		fs.nw.Close()
		t.Fatal(err)
	}
	fs.nw.SetSocketPeer(2, client.nw.SocketAddr())
	client.nw.SetSocketPeer(1, fs.nw.SocketAddr())
	errs := make(chan error, 1)
	go func() { errs <- fs.run() }()
	if err := client.run(); err != nil {
		t.Errorf("client: %v\n%s", err, clientOut.String())
	}
	if err := <-errs; err != nil {
		t.Errorf("fs: %v\n%s", err, fsOut.String())
	}
	for _, want := range []string{`wrote and re-read "first entry"`, "session closed", "metrics:"} {
		if !strings.Contains(clientOut.String(), want) {
			t.Errorf("client output lacks %q:\n%s", want, clientOut.String())
		}
	}
	if !strings.Contains(fsOut.String(), "network idle; shutting down") {
		t.Errorf("fs did not stop on an idle network:\n%s", fsOut.String())
	}
	checkTrace(t, trace)
}
