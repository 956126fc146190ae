// Driver option and failure-path tests: -json diagnostics, the
// -suppressions audit listing, empty-reason enforcement, and the exit-2
// operational failures (unparseable source, missing or malformed go.mod,
// type errors).
package lint_test

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soda/lint"
	"soda/lint/nogoroutine"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote. The driver's -json and -suppressions modes write to
// stdout by contract (diagnostics stay on stderr).
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		done <- b.String()
	}()
	fn()
	_ = w.Close()
	return <-done
}

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
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

func TestMainJSONDiagnostics(t *testing.T) {
	root := writeModule(t)
	chdir(t, root)
	analyzers := []*lint.Analyzer{nogoroutine.Analyzer}

	var code int
	out := captureStdout(t, func() {
		code = lint.Main([]string{"-json", "./dirty"}, analyzers)
	})
	if code != 1 {
		t.Fatalf("-json on dirty package = %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("-json reported no diagnostics for the dirty package")
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.File, "dirty.go") || d.Line <= 0 || d.Col <= 0 ||
			d.Analyzer != "nogoroutine" || d.Message == "" {
			t.Fatalf("malformed diagnostic: %+v", d)
		}
	}

	// A clean run must still emit a JSON document: the empty array.
	out = captureStdout(t, func() {
		code = lint.Main([]string{"-json", "./clean"}, analyzers)
	})
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("-json on clean package = %d with %q, want 0 with []", code, out)
	}
}

func TestMainSuppressionsListing(t *testing.T) {
	root := writeModule(t)
	// One more annotation with a missing reason, so the audit flags it.
	bare := filepath.Join(root, "bare", "bare.go")
	if err := os.MkdirAll(filepath.Dir(bare), 0o755); err != nil {
		t.Fatal(err)
	}
	err := os.WriteFile(bare, []byte(`package bare

func F() int {
	//lint:allow nogoroutine
	return 1
}
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, root)
	analyzers := []*lint.Analyzer{nogoroutine.Analyzer}

	var code int
	out := captureStdout(t, func() {
		code = lint.Main([]string{"-suppressions", "./suppressed", "./bare"}, analyzers)
	})
	if code != 0 {
		t.Fatalf("-suppressions = %d, want 0 (audit never gates)", code)
	}
	if !strings.Contains(out, "nogoroutine (test fixture: sanctioned pool)") {
		t.Fatalf("audit lost a reasoned suppression:\n%s", out)
	}
	// One line per site: three reasoned sites in suppressed/ plus the bare
	// one, which is the only line flagged.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("audit listed %d sites, want 4:\n%s", len(lines), out)
	}
	for _, line := range lines {
		inBare := strings.Contains(line, "bare.go:")
		if inBare != strings.HasSuffix(line, "nogoroutine (MISSING REASON)") {
			t.Fatalf("audit line %q: only the bare.go site may be flagged MISSING REASON", line)
		}
	}
}

func TestEmptyReasonIsAFinding(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"p/p.go": `package p

func F() {
	ch := make(chan int)
	//lint:allow nogoroutine
	go func() { ch <- 1 }()
	//lint:allow nogoroutine (reasoned: test fixture)
	<-ch
}
`,
	})
	chdir(t, root)
	// The reasonless annotation still suppresses its line, but is itself
	// reported, so the package cannot pass while carrying it.
	if got := lint.Main([]string{"./p"}, []*lint.Analyzer{nogoroutine.Analyzer}); got != 1 {
		t.Fatalf("package with reasonless suppression = %d, want 1", got)
	}
}

func TestMainLoadFailures(t *testing.T) {
	analyzers := []*lint.Analyzer{nogoroutine.Analyzer}

	t.Run("unparseable file", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod":     "module tmpmod\n\ngo 1.22\n",
			"bad/bad.go": "package bad\n\nfunc {\n",
		})
		chdir(t, root)
		if got := lint.Main([]string{"./..."}, analyzers); got != 2 {
			t.Fatalf("unparseable file = %d, want 2", got)
		}
	})

	t.Run("type error", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod":     "module tmpmod\n\ngo 1.22\n",
			"bad/bad.go": "package bad\n\nfunc F() int { return undefinedSymbol }\n",
		})
		chdir(t, root)
		if got := lint.Main([]string{"./..."}, analyzers); got != 2 {
			t.Fatalf("type error = %d, want 2", got)
		}
	})

	t.Run("missing go.mod", func(t *testing.T) {
		chdir(t, t.TempDir())
		if got := lint.Main([]string{"./..."}, analyzers); got != 2 {
			t.Fatalf("no go.mod above cwd = %d, want 2", got)
		}
	})

	t.Run("go.mod without module directive", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod": "go 1.22\n",
			"p/p.go": "package p\n",
		})
		chdir(t, root)
		if got := lint.Main([]string{"./..."}, analyzers); got != 2 {
			t.Fatalf("module-less go.mod = %d, want 2", got)
		}
	})
}
