package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"soda/internal/golden"
)

// TestTablesGolden pins the paper's evaluation tables (EXPERIMENTS.md
// E1–E5): `sodabench -table all` at the default -ops must print exactly
// testdata/tables.golden. Every cell is virtual time or a frame count from
// the deterministic simulator, so a change to the cost model, the
// transport or the kernel that moves any cell fails here. When a change is
// meant to move the tables, regenerate the file with
//
//	go test ./cmd/sodabench -run '^TestTablesGolden$' -update
//
// and say in the change which cells moved and why.
func TestTablesGolden(t *testing.T) {
	golden.Check(t, "tables", string(runMain(t, "-table", "all")))
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
