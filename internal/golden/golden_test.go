package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder stands in for a test: it keeps what Check reports.
type recorder struct {
	testing.TB
	report string
}

func (r *recorder) Helper()      {}
func (r *recorder) Name() string { return "TestRun/cell" }
func (r *recorder) Errorf(format string, args ...any) {
	r.report += fmt.Sprintf(format, args...)
}

// inTemp points the golden directory at a fresh temporary one and sets
// -update for the duration of the test.
func inTemp(t *testing.T, rewrite bool) {
	oldDir, oldUpdate := dir, *update
	dir, *update = t.TempDir(), rewrite
	t.Cleanup(func() { dir, *update = oldDir, oldUpdate })
}

// run renders n transcript lines, each led by its virtual time.
func run(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%dms event %d\n", 10*i, i)
	}
	return b.String()
}

// check runs Check on transcript against the file recorded from golden.
func check(t *testing.T, golden, transcript string) string {
	inTemp(t, true)
	Check(t, "cell", golden)
	*update = false
	r := &recorder{TB: t}
	Check(r, "cell", transcript)
	return r.report
}

func TestWholeMismatchNamesTheLine(t *testing.T) {
	golden := run(20)
	if got := check(t, golden, golden); got != "" {
		t.Fatalf("an equal run was reported: %s", got)
	}
	got := check(t, golden, strings.Replace(golden, "event 7\n", "event 7 moved\n", 1))
	for _, want := range []string{"line 8:", "want: 70ms event 7\n", "got:  70ms event 7 moved\n",
		"/internal/golden -run '^TestRun$' -update"} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
	if got := check(t, golden, run(19)); !strings.Contains(got, "line 20:\n  want: 190ms event 19\n  got:  (end)") {
		t.Errorf("a shorter run is not named at its end:\n%s", got)
	}
}

func TestDigestMismatchNamesTheChunk(t *testing.T) {
	n := 3*chunkLines + 17
	golden := run(n)
	if enc := encode(golden); !strings.HasPrefix(enc, digestHead) || len(lines(enc)) != 5 {
		t.Fatalf("%d lines not stored as a head and 4 digest lines:\n%s", n, enc)
	}
	if got := check(t, golden, golden); got != "" {
		t.Fatalf("an equal run was reported: %s", got)
	}
	// Line 250 lies in chunk 3, which covers lines 201-300 and starts at
	// 2000ms (line 201 is event 200).
	got := check(t, golden, strings.Replace(golden, "event 249\n", "event 249 moved\n", 1))
	for _, want := range []string{"chunk 3, lines 201-300, from time 2000ms",
		"want: @201 2000ms ", "got:  @201 2000ms ", "chunk 3 of this run:\n2000ms event 200\n",
		"2490ms event 249 moved\n2500ms event 250\n", "2990ms event 299\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "1990ms event 199\n") || strings.Contains(got, "3000ms event 300\n") {
		t.Errorf("report prints more than chunk 3:\n%s", got)
	}
	if got := check(t, golden, run(3*chunkLines)); !strings.Contains(got, "chunk 4, lines 301-300, from time -:\n  want: @301 3000ms ") ||
		!strings.Contains(got, "got:  (end)\n") {
		t.Errorf("a run ending on a chunk boundary is not named:\n%s", got)
	}
}

func TestMissingFileGivesTheCommand(t *testing.T) {
	inTemp(t, false)
	r := &recorder{TB: t}
	Check(r, "absent", run(3))
	if !strings.Contains(r.report, "absent.golden") ||
		!strings.HasSuffix(r.report, "/internal/golden -run '^TestRun$' -update") || !strings.Contains(r.report, "record it with: go test /") {
		t.Errorf("report: %s", r.report)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	for _, n := range []int{0, 5, wholeLines, wholeLines + 1, 4*chunkLines + 3} {
		inTemp(t, true)
		transcript := run(n)
		Check(t, "cell", transcript)
		path := filepath.Join(dir, "cell.golden")
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		Check(t, "cell", transcript)
		if again, _ := os.ReadFile(path); string(again) != string(first) {
			t.Errorf("%d lines: re-recording changed the file:\n%s\n%s", n, first, again)
		}
		if whole := string(first) == transcript; whole != (n <= wholeLines) {
			t.Errorf("%d lines stored whole = %v", n, whole)
		}
		*update = false
		r := &recorder{TB: t}
		if Check(r, "cell", transcript); r.report != "" {
			t.Errorf("%d lines: the recorded file fails its own run: %s", n, r.report)
		}
	}
}

func TestDiff(t *testing.T) {
	if d := Diff("a\nb\n", "a\nb\n"); d != "" {
		t.Errorf("equal strings differ: %s", d)
	}
	if d := Diff("a\nb\n", "a\nc\nd\n"); d != "line 2:\n  want: b\n  got:  c" {
		t.Errorf("Diff = %q", d)
	}
	if d := Diff("a\n", "a\nb\n"); d != "line 2:\n  want: (end)\n  got:  b" {
		t.Errorf("Diff = %q", d)
	}
}
