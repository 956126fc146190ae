// Package golden pins a test's transcript — a run rendered as text, one
// line an event — to a file under the package's testdata directory, and on
// a mismatch names where the run changed, not only that it did. Only tests
// import it; -update rewrites the files (DESIGN.md §9).
//
// A transcript of at most wholeLines lines is stored whole, to be read and
// diffed as text. A longer one is stored as a head line and one line
//
//	@<first line number> <time> <FNV-64a of the chunk's bytes>
//
// per chunk of chunkLines lines, where <time> is the first field of the
// chunk's first line that reads as a time.Duration (its virtual time).
package golden

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from this run")

// dir holds the golden files; the package's own tests point it elsewhere.
var dir = "testdata"

const (
	wholeLines = 250 // the longest transcript stored whole
	chunkLines = 100 // lines a digest line covers
	digestHead = "golden digest: "
)

// Check compares transcript with testdata/<name>.golden and reports the
// first place they part, or under -update rewrites the file from it.
func Check(t testing.TB, name, transcript string) {
	t.Helper()
	path := filepath.Join(dir, name+".golden")
	stored := encode(transcript)
	wd, _ := os.Getwd()
	test, _, _ := strings.Cut(t.Name(), "/")
	rerecord := fmt.Sprintf("go test %s -run '^%s$' -update", wd, test)
	if *update {
		if err := os.WriteFile(path, []byte(stored), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("golden: %v\nrecord it with: %s", err, rerecord)
		return
	}
	if string(want) == stored {
		return
	}
	where := Diff(string(want), transcript)
	if strings.HasPrefix(string(want), digestHead) {
		where = chunkDiff(string(want), lines(transcript))
	}
	t.Errorf("golden: the run departs from %s at %s\nif that is meant, re-record with: %s", path, where, rerecord)
}

// Diff names the first line at which got departs from want, with both
// versions of it, or returns "" when the two are equal.
func Diff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := lines(want), lines(got)
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, at(w, i), at(g, i))
}

// encode renders a transcript as its golden file.
func encode(transcript string) string {
	ls := lines(transcript)
	if len(ls) <= wholeLines {
		return transcript
	}
	return fmt.Sprintf("%s%d lines, %d a chunk\n%s\n", digestHead, len(ls), chunkLines,
		strings.Join(digests(ls), "\n"))
}

// digests returns one digest line per chunk of ls.
func digests(ls []string) []string {
	var out []string
	for i := 0; i < len(ls); i += chunkLines {
		h := fnv.New64a()
		for _, l := range ls[i:min(i+chunkLines, len(ls))] {
			io.WriteString(h, l)
		}
		out = append(out, fmt.Sprintf("@%d %s %016x", i+1, timeOf(ls[i]), h.Sum64()))
	}
	return out
}

// chunkDiff names the first chunk at which a run's lines depart from a
// digest file, and prints that chunk of the run.
func chunkDiff(want string, ls []string) string {
	w, g := lines(want), digests(ls)
	k := 0
	for k+1 < len(w) && k < len(g) && at(w, k+1) == g[k] {
		k++
	}
	from, to := min(k*chunkLines, len(ls)), min((k+1)*chunkLines, len(ls))
	return fmt.Sprintf("chunk %d, lines %d-%d, from time %s:\n  want: %s\n  got:  %s\nchunk %d of this run:\n%s",
		k+1, from+1, to, timeOf(at(ls, from)), at(w, k+1), at(g, k), k+1, strings.Join(ls[from:to], ""))
}

// lines splits s after each newline.
func lines(s string) []string {
	ls := strings.SplitAfter(s, "\n")
	if ls[len(ls)-1] == "" {
		ls = ls[:len(ls)-1]
	}
	return ls
}

// at is line i of ls without its newline, or "(end)" past the last.
func at(ls []string, i int) string {
	if i < len(ls) {
		return strings.TrimSuffix(ls[i], "\n")
	}
	return "(end)"
}

// timeOf is the first field of line that reads as a time.Duration.
func timeOf(line string) string {
	for _, f := range strings.Fields(line) {
		if _, err := time.ParseDuration(f); err == nil {
			return f
		}
	}
	return "-"
}
