package soda_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGoDirectiveNotNewerThanBenchmark guards the nested benchmark module:
// it builds this module from source through a replace directive, so a root
// go.mod whose go directive is newer than benchmark/go.mod's makes every
// benchmark build fail with "go: updates to go.mod needed". Raising the
// language version means raising benchmark/go.mod's first.
func TestGoDirectiveNotNewerThanBenchmark(t *testing.T) {
	root := goDirective(t, "go.mod")
	bench := goDirective(t, filepath.Join("benchmark", "go.mod"))
	if compareGoVersions(root, bench) > 0 {
		t.Fatalf("go.mod says go %s but benchmark/go.mod says go %s; the benchmark module would not build", root, bench)
	}
}

func TestCompareGoVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.22", "1.22", 0},
		{"1.23", "1.22", 1},
		{"1.22", "1.23", -1},
		{"1.22.3", "1.22", 1},
		{"1.22", "1.22.0", 0},
		{"1.9", "1.22", -1},
		{"2.0", "1.99", 1},
	}
	for _, tc := range cases {
		if got := compareGoVersions(tc.a, tc.b); got != tc.want {
			t.Errorf("compareGoVersions(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// goDirective returns the version named by a go.mod file's go directive.
func goDirective(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "go" {
			return f[1]
		}
	}
	t.Fatalf("%s has no go directive", path)
	return ""
}

// compareGoVersions orders dotted Go versions numerically ("1.9" < "1.22");
// missing trailing components count as zero.
func compareGoVersions(a, b string) int {
	as, bs := strings.Split(a, "."), strings.Split(b, ".")
	for i := 0; i < len(as) || i < len(bs); i++ {
		var x, y int
		if i < len(as) {
			x, _ = strconv.Atoi(as[i])
		}
		if i < len(bs) {
			y, _ = strconv.Atoi(bs[i])
		}
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}
