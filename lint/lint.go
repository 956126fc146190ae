// Package lint is a small, dependency-free static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, scoped to this module's needs.
//
// The module's correctness story — byte-identical runs per seed, zero
// observer overhead when disabled, Table 6.1 cost attribution — rests on
// conventions (virtual time only, seeded randomness only, scheduler-owned
// concurrency, sorted map iteration, nil-guarded event construction) that
// review vigilance alone cannot protect as the codebase grows. The analyzers
// under lint/... turn those conventions into machine-checked contracts;
// cmd/sodavet is the driver that runs them over the module.
//
// The x/tools analysis module is deliberately not imported: the repository
// builds with the standard library alone. The Analyzer/Pass surface mirrors
// go/analysis closely enough that porting an analyzer onto unitchecker later
// is mechanical.
//
// # Suppressing a finding
//
// A diagnostic can be silenced with a scoped annotation on the flagged line
// or the line directly above it:
//
//	//lint:allow <analyzer> (reason)
//
// The analyzer name must match exactly, and the parenthesized reason is
// mandatory: a suppression without a non-empty reason is itself reported
// (as analyzer "suppression"), so every suppression explains itself.
// `sodavet -suppressions` lists every active suppression site for auditing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single package via its Pass
// and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// annotations. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest explains the contract being enforced.
	Doc string
	// Run performs the check. It must not retain the Pass.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for Files.
	Info *types.Info
	// Facts is the module-wide interprocedural index (call graph, marker
	// annotations, per-function summaries) shared by every analyzer in the
	// run. Never nil: RunAnalyzers builds a single-package index when the
	// caller provides none.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// allowDirective is the comment prefix that suppresses a diagnostic.
const allowDirective = "//lint:allow "

// allowedLines maps file name -> line -> analyzer names allowed there. An
// annotation covers both its own line and the line below, so it can sit at
// the end of the flagged statement or on its own line above it.
type allowedLines map[string]map[int]map[string]bool

// AllowSite is one //lint:allow annotation: where it sits, which analyzer
// it silences, and the reason given (empty when the annotation is
// malformed). The driver's -suppressions mode lists these for auditing.
type AllowSite struct {
	Pos      token.Position
	Analyzer string
	Reason   string

	pos token.Pos // the annotation's own position, for sortable diagnostics
}

// collectAllows gathers every suppression annotation in files. The second
// result lists the sites in source order; a site with an empty Reason is
// still honored (so fixing it is one edit, not two) but RunAnalyzers
// reports it.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowedLines, []AllowSite) {
	out := allowedLines{}
	var sites []AllowSite
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
				name, reason, _ := strings.Cut(rest, " ")
				if name == "" {
					continue
				}
				reason = strings.TrimSpace(reason)
				if strings.HasPrefix(reason, "(") && strings.HasSuffix(reason, ")") {
					reason = strings.TrimSpace(reason[1 : len(reason)-1])
				} else {
					reason = "" // a bare trailing word is not a reason
				}
				pos := fset.Position(c.Pos())
				sites = append(sites, AllowSite{Pos: pos, Analyzer: name, Reason: reason, pos: c.Pos()})
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					out[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return out, sites
}

// CollectAllowSites returns every //lint:allow annotation in pkg, in
// source order.
func CollectAllowSites(pkg *Package) []AllowSite {
	_, sites := collectAllows(pkg.Fset, pkg.Files)
	return sites
}

func (a allowedLines) allows(pos token.Position, analyzer string) bool {
	return a[pos.Filename][pos.Line][analyzer]
}

// RunAnalyzers applies every analyzer to pkg and returns the diagnostics
// that survive //lint:allow filtering, sorted by position. A suppression
// annotation without a parenthesized non-empty reason is reported as a
// diagnostic of the synthetic analyzer "suppression". facts may be nil, in
// which case a single-package index is built for the Pass.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	if facts == nil {
		facts = BuildFacts([]*Package{pkg})
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	allows, sites := collectAllows(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !allows.allows(pkg.Fset.Position(d.Pos), d.Analyzer) {
			kept = append(kept, d)
		}
	}
	for _, s := range sites {
		if s.Reason == "" && !allows.allows(s.Pos, "suppression") {
			kept = append(kept, Diagnostic{
				Pos:      s.pos,
				Analyzer: "suppression",
				Message:  fmt.Sprintf("//lint:allow %s needs a non-empty (reason)", s.Analyzer),
			})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(kept[i].Pos), pkg.Fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}
