package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestTablesGolden pins the paper's evaluation tables (EXPERIMENTS.md
// E1–E5): `sodabench -table all` at the default -ops must print exactly
// testdata/tables.golden. Every cell is virtual time or a frame count from
// the deterministic simulator, so a change to the cost model, the
// transport or the kernel that moves any cell fails here. When a change is
// meant to move the tables, regenerate the file with
//
//	go run ./cmd/sodabench -table all > cmd/sodabench/testdata/tables.golden
//
// and say in the change which cells moved and why.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := runMain(t, "-table", "all")
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("tables differ from testdata/tables.golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// runMain runs main with args on a fresh flag set and returns what it
// printed to stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"sodabench"}, args...)
	flag.CommandLine = flag.NewFlagSet("sodabench", flag.ContinueOnError)
	os.Stdout = out
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}
