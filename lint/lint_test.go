package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// parsePkg parses and type-checks one import-free source file into a
// Package, the unit RunAnalyzers consumes.
func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	return parsePkgAt(t, "a", src)
}

// parsePkgAt is parsePkg for a package with the given import path.
func parsePkgAt(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: path, Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func TestCollectAllowsScope(t *testing.T) {
	src := `package a

//lint:allow alpha (annotation above covers the next line)
func f() {}

func g() {} //lint:allow beta (annotation on the flagged line itself)

//lint:allow gamma delta is not a second name
func h() {}

//lint:allow
func broken() {}
`
	pkg := parsePkg(t, src)
	allows, _ := collectAllows(pkg.Fset, pkg.Files)

	at := func(line int, analyzer string) bool {
		return allows.allows(token.Position{Filename: "a.go", Line: line}, analyzer)
	}
	// The alpha annotation sits on line 3: it covers lines 3 and 4 only.
	if !at(3, "alpha") || !at(4, "alpha") {
		t.Error("annotation does not cover its own line and the line below")
	}
	if at(5, "alpha") {
		t.Error("annotation leaked two lines down")
	}
	// beta is end-of-line on line 6.
	if !at(6, "beta") {
		t.Error("end-of-line annotation does not cover its line")
	}
	// Only the first word after the directive is the analyzer name.
	if !at(9, "gamma") {
		t.Error("gamma annotation not parsed")
	}
	if at(9, "delta") {
		t.Error("reason text parsed as a second analyzer name")
	}
	// A directive with no name suppresses nothing.
	if at(12, "") || at(13, "") {
		t.Error("nameless directive registered an allow")
	}
	// Names never cross-suppress.
	if at(4, "beta") || at(6, "alpha") {
		t.Error("allow for one analyzer suppressed another")
	}
}

// funcFlagger reports every function declaration — a minimal analyzer for
// exercising the framework itself.
var funcFlagger = &Analyzer{
	Name: "funcflag",
	Doc:  "test analyzer: flags every function declaration",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "function %s declared", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

func TestRunAnalyzersFiltersSuppressed(t *testing.T) {
	src := `package a

func kept() {}

//lint:allow funcflag (suppressed for the test)
func suppressed() {}

func alsoKept() {}
`
	pkg := parsePkg(t, src)
	diags, err := RunAnalyzers(pkg, []*Analyzer{funcFlagger}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Message != "function kept declared" || diags[1].Message != "function alsoKept declared" {
		t.Fatalf("wrong survivors (order must be positional): %v", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "funcflag" {
			t.Fatalf("diagnostic attributed to %q", d.Analyzer)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod")
	pkg := &Package{Path: "soda/internal/sim", Dir: filepath.Join(root, "internal", "sim")}
	cases := []struct {
		pat, cwd string
		want     bool
	}{
		{"all", root, true},
		{"./...", root, true},
		{"./internal/...", root, true},
		{"./internal/sim", root, true},
		{"./sim", filepath.Join(root, "internal"), true},
		{"./...", filepath.Join(root, "internal"), true}, // subtree from cwd
		{"./obs/...", root, false},
		{"soda/internal/sim", root, true},
		{"soda/internal/...", root, true},
		{"soda/...", root, true},
		{"soda/internal", root, false},
		{"soda/obs", root, false},
	}
	for _, tc := range cases {
		if got := matchPattern(pkg, tc.pat, tc.cwd); got != tc.want {
			t.Errorf("matchPattern(%q, cwd=%q) = %v, want %v", tc.pat, tc.cwd, got, tc.want)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := t.TempDir()
	nested := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmp\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := FindModuleRoot(nested)
	if err != nil {
		t.Fatal(err)
	}
	// macOS tempdirs live behind /var -> /private/var symlinks.
	wantResolved, _ := filepath.EvalSymlinks(root)
	gotResolved, _ := filepath.EvalSymlinks(got)
	if gotResolved != wantResolved {
		t.Fatalf("FindModuleRoot = %q, want %q", got, root)
	}
	if _, err := FindModuleRoot(os.TempDir()); err == nil {
		t.Skip("a go.mod exists above the system temp dir; cannot test the failure path")
	}
}

// TestMarkedEventTypes: an observer event opts into obszerocost with the
// same //lint: directive syntax as every other marker, read through Facts;
// the prose form "// lint:event" is not a marker.
func TestMarkedEventTypes(t *testing.T) {
	src := `package a

// Ev is an observer event.
//
//lint:event
type Ev struct{ N int }

// Prose mentions lint:event but is not a directive.
//
// lint:event
type Prose struct{ N int }

// Plain is not marked.
type Plain struct{ N int }
`
	pkg := parsePkg(t, src)
	facts := BuildFacts([]*Package{pkg})
	for name, want := range map[string]bool{"Ev": true, "Prose": false, "Plain": false} {
		typ := pkg.Types.Scope().Lookup(name).Type()
		if got := facts.TypeMarked(typ, "event"); got != want {
			t.Errorf("TypeMarked(%s, event) = %v, want %v", name, got, want)
		}
	}
}
