// Driver tests: multichecker exit codes over a throwaway module. External
// test package so the real analyzers can be imported without a cycle.
package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"soda/lint"
	"soda/lint/nogoroutine"
)

// writeModule lays out a small module with one clean package, one package
// violating the nogoroutine contract, and one whose violation is
// suppressed with //lint:allow.
func writeModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"clean/clean.go": `package clean

func F() int { return 1 }
`,
		"dirty/dirty.go": `package dirty

func Leak() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
}
`,
		"suppressed/s.go": `package suppressed

func Pool() {
	done := make(chan struct{}) //lint:allow nogoroutine (test fixture: sanctioned pool)
	//lint:allow nogoroutine (test fixture: sanctioned pool)
	go close(done)
	//lint:allow nogoroutine (test fixture: sanctioned pool)
	<-done
}
`,
	}
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// chdir is os.Chdir with test-scoped restore (the driver resolves patterns
// and the module root against the working directory).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
}

func TestMainStandaloneExitCodes(t *testing.T) {
	root := writeModule(t)
	chdir(t, root)
	analyzers := []*lint.Analyzer{nogoroutine.Analyzer}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"./clean"}, 0},
		{"dirty package", []string{"./dirty"}, 1},
		{"suppressed package", []string{"./suppressed"}, 0},
		{"whole module", []string{"./..."}, 1},
		{"all keyword", []string{"all"}, 1},
		{"import path", []string{"tmpmod/dirty"}, 1},
		{"import subtree", []string{"tmpmod/clean/..."}, 0},
		{"clean plus suppressed", []string{"./clean", "./suppressed"}, 0},
		{"no such package", []string{"./nonexistent"}, 2},
		{"no args", nil, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := lint.Main(tc.args, analyzers); got != tc.want {
				t.Fatalf("Main(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
