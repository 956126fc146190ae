package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Main is the multichecker entry point used by cmd/sodavet:
//
//	sodavet [-json] [-suppressions] <patterns>
//
// The patterns select module packages: "./..." or "all" for the whole
// module, "./x/..." or "mod/x/..." for a subtree, "./x" or an import path
// for one package. By default every analyzer runs over the selected
// packages and each finding is printed to stderr. -json writes the
// findings to stdout as a JSON array (file/line/col/analyzer/message)
// instead; -suppressions lists every active //lint:allow site in the
// selected packages as text instead of analyzing them. It returns the
// process exit code: 0 clean, 1 findings, 2 usage or load failure.
func Main(args []string, analyzers []*Analyzer) int {
	var jsonOut, suppressions bool
	for len(args) > 0 {
		if args[0] == "-json" {
			jsonOut = true
		} else if args[0] == "-suppressions" {
			suppressions = true
		} else {
			break
		}
		args = args[1:]
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sodavet [-json] [-suppressions] <packages>")
		return 2
	}
	loader, pkgs, selected, err := loadSelected(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sodavet:", err)
		return 2
	}
	if suppressions {
		listSuppressions(selected)
		return 0
	}
	facts := BuildFacts(pkgs)
	all := []jsonDiagnostic{} // encodes as [], never null
	for _, pkg := range selected {
		diags, err := RunAnalyzers(pkg, analyzers, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sodavet:", err)
			return 2
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			all = append(all, jsonDiagnostic{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
			if !jsonOut {
				fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "sodavet:", err)
			return 2
		}
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// jsonDiagnostic is the -json wire shape for one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// loadSelected loads every package of the module enclosing the working
// directory and returns them with the subset the patterns select. All
// packages feed the facts index, since markers and callees cross package
// boundaries; only the selected ones are analyzed.
func loadSelected(patterns []string) (loader *Loader, pkgs, selected []*Package, err error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, nil, nil, err
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		return nil, nil, nil, err
	}
	if loader, err = NewLoader(root); err != nil {
		return nil, nil, nil, err
	}
	if pkgs, err = loader.LoadAll(); err != nil {
		return nil, nil, nil, err
	}
	selected = selectPackages(pkgs, patterns, cwd)
	if len(selected) == 0 {
		return nil, nil, nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	return loader, pkgs, selected, nil
}

// listSuppressions prints every //lint:allow annotation in the selected
// packages, one line per site, so stale suppressions are auditable.
// Malformed suppressions are the analysis run's business, not this
// listing's: it flags a missing reason but never fails.
func listSuppressions(selected []*Package) {
	var sites []AllowSite
	for _, pkg := range selected {
		sites = append(sites, CollectAllowSites(pkg)...)
		// Zone declarations are package-wide suppressions in effect; audit
		// them in the same listing, tagged "zone:<name>".
		for _, z := range CollectZoneSites(pkg) {
			sites = append(sites, AllowSite{Pos: z.Pos, Analyzer: "zone:" + z.Name, Reason: z.Reason})
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Pos.Filename != sites[j].Pos.Filename {
			return sites[i].Pos.Filename < sites[j].Pos.Filename
		}
		return sites[i].Pos.Line < sites[j].Pos.Line
	})
	for _, s := range sites {
		reason := s.Reason
		if reason == "" {
			reason = "MISSING REASON"
		}
		fmt.Printf("%s:%d: %s (%s)\n", s.Pos.Filename, s.Pos.Line, s.Analyzer, reason)
	}
}

// selectPackages filters pkgs by the command-line patterns. "./..." (from
// the module root) and "all" select everything; "./x/..." selects a
// subtree; "./x" or an import path selects one package.
func selectPackages(pkgs []*Package, patterns []string, cwd string) []*Package {
	var out []*Package
	for _, pkg := range pkgs {
		for _, pat := range patterns {
			if matchPattern(pkg, pat, cwd) {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

func matchPattern(pkg *Package, pat, cwd string) bool {
	if pat == "all" {
		return true
	}
	// Resolve filesystem-style patterns against cwd.
	if pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") || filepath.IsAbs(pat) {
		base, rest := pat, ""
		if strings.HasSuffix(pat, "/...") {
			base, rest = strings.TrimSuffix(pat, "/..."), "..."
		}
		abs := base
		if !filepath.IsAbs(base) {
			abs = filepath.Join(cwd, base)
		}
		abs = filepath.Clean(abs)
		if rest == "..." {
			return pkg.Dir == abs || strings.HasPrefix(pkg.Dir, abs+string(filepath.Separator))
		}
		return pkg.Dir == abs
	}
	// Import-path pattern.
	if strings.HasSuffix(pat, "/...") {
		base := strings.TrimSuffix(pat, "/...")
		return pkg.Path == base || strings.HasPrefix(pkg.Path, base+"/")
	}
	return pkg.Path == pat
}
