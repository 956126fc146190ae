// Package linttest runs a lint.Analyzer over a testdata package and checks
// its diagnostics against expectations embedded in the source, in the style
// of golang.org/x/tools/go/analysis/analysistest:
//
//	data := badStruct{}   // want `construction must be nil-guarded`
//
// A "// want" comment expects exactly one diagnostic on its line whose
// message matches the regular expression (quoted with backquotes or double
// quotes). Lines without a want comment must produce no diagnostic.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"soda/lint"
)

var wantRe = regexp.MustCompile("// want (`([^`]*)`|\"([^\"]*)\")")

// Run loads the Go package in dir (typically "testdata/src/a"), applies the
// analyzer, and reports mismatches between expected and actual diagnostics
// as test errors. //lint:allow annotations in the test sources are honored,
// so suppression syntax is testable too.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	pkg := load(t, dir)
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	got := map[key][]string{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{filepath.Base(pos.Filename), pos.Line}
		got[k] = append(got[k], d.Message)
	}

	want := map[key]*regexp.Regexp{}
	for _, f := range pkg.Files {
		fileName := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				expr := m[2]
				if expr == "" {
					expr = m[3]
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fileName, expr, err)
				}
				want[key{fileName, pkg.Fset.Position(c.Pos()).Line}] = re
			}
		}
	}

	var keys []key
	//lint:allow mapiterorder (keys are sorted immediately below)
	for k := range want {
		keys = append(keys, k)
	}
	//lint:allow mapiterorder (keys are sorted immediately below)
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		re, expected := want[k]
		msgs := got[k]
		switch {
		case expected && len(msgs) == 0:
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		case !expected && len(msgs) > 0:
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, strings.Join(msgs, "; "))
		case expected:
			for _, msg := range msgs {
				if !re.MatchString(msg) {
					t.Errorf("%s:%d: diagnostic %q does not match %q", k.file, k.line, msg, re)
				}
			}
		}
	}
}

// load parses and type-checks dir as a single package named by its files,
// resolving imports (standard library only) from GOROOT source.
func load(t *testing.T, dir string) *lint.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("a", fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", dir, err)
	}
	return &lint.Package{Path: "a", Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
}
