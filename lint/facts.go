package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the framework: a module-wide
// call graph with per-function summaries (marker annotations, resolved call
// sites) that analyzers traverse to prove properties across package
// boundaries — "this hotpath function transitively allocates nothing",
// "this segment handler reaches no state owned by another segment".
//
// # Marker annotations
//
// A function or type declaration opts into an interprocedural contract with
// a directive comment in its doc block:
//
//	//lint:hotpath
//	func (e *Endpoint) Send(...) { ... }
//
// The marker name is a single lowercase word; anything after it on the line
// is explanatory text. //lint:allow is the suppression directive, never a
// marker. Only the directive form counts: prose such as "// lint:event"
// (with a space) is not a marker. Markers in force:
//
//	lint:hotpath   — noalloc root: must be transitively allocation-free
//	lint:segroot   — segshare root: segment-handler entry point
//	lint:segshared — on a type: state shared across segments (read-only
//	                 from segment handlers)
//	lint:segqueue  — scheduler entry whose closure argument is the
//	                 sanctioned deferred gateway queue
//	lint:segemit   — frame emission onto a segment (only allowed from a
//	                 segqueue closure)
//	lint:parfor    — parallel-for entry whose closure argument parcapture
//	                 checks for unpartitioned captures
//	lint:event     — on a type: observer event that obszerocost requires
//	                 to be built only under a nil-consumer guard
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Callees are the possible targets: one function for a static call,
	// every module implementation for a call through an interface method,
	// empty for a dynamic call. Targets outside the loaded packages (the
	// standard library) appear here but have no FuncInfo.
	Callees []*types.Func
	// Dynamic marks a call through a func value (or anything else the
	// resolver cannot name); such calls defeat interprocedural proofs and
	// conservative analyzers must flag or suppress them.
	Dynamic bool
	// Iface marks a call resolved by implementation search: Callees holds
	// every module type's method implementing the interface method.
	Iface bool
}

// FuncInfo is the per-function summary: its syntax, marker annotations, and
// resolved outgoing calls (including calls inside nested function literals,
// which execute on behalf of the enclosing function).
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Marks map[string]bool
	Calls []*CallSite
}

// Facts is the module-wide interprocedural index, built once per run and
// shared by every analyzer through Pass.Facts.
type Facts struct {
	Pkgs []*Package
	// Funcs summarizes every function and method declared in Pkgs.
	Funcs map[*types.Func]*FuncInfo
	// TypeMarks holds marker annotations on type declarations.
	TypeMarks map[*types.TypeName]map[string]bool

	sites     map[*ast.CallExpr]*CallSite
	allows    allowedLines
	fset      *token.FileSet
	named     []*types.Named // concrete named types, for implementation search
	implCache map[string][]*types.Func
}

// markRe matches a marker directive comment line. The name is captured;
// "allow" is the suppression directive and is excluded by the caller.
var markRe = regexp.MustCompile(`^//lint:([a-z]+)\b`)

// markSet extracts marker names from a doc comment's directive lines.
func markSet(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var marks map[string]bool
	for _, c := range doc.List {
		m := markRe.FindStringSubmatch(strings.TrimSpace(c.Text))
		if m == nil || m[1] == "allow" {
			continue
		}
		if marks == nil {
			marks = map[string]bool{}
		}
		marks[m[1]] = true
	}
	return marks
}

// BuildFacts indexes pkgs: declarations, marker annotations, named types,
// and resolved call sites. Interface method calls are resolved by class
// hierarchy: every loaded concrete type implementing the interface
// contributes its method as a possible callee.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Pkgs:      pkgs,
		Funcs:     map[*types.Func]*FuncInfo{},
		TypeMarks: map[*types.TypeName]map[string]bool{},
		sites:     map[*ast.CallExpr]*CallSite{},
		allows:    allowedLines{},
		implCache: map[string][]*types.Func{},
	}
	if len(pkgs) > 0 {
		f.fset = pkgs[0].Fset
	}
	var infos []*FuncInfo // declaration order, for the deterministic pass 2
	for _, pkg := range pkgs {
		allows, _ := collectAllows(pkg.Fset, pkg.Files)
		//lint:allow mapiterorder (merging into an unordered lookup table)
		for file, byLine := range allows {
			f.allows[file] = byLine
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					fi := &FuncInfo{Obj: obj, Decl: d, Pkg: pkg, Marks: markSet(d.Doc)}
					f.Funcs[obj] = fi
					infos = append(infos, fi)
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						doc := ts.Doc
						if doc == nil {
							doc = d.Doc
						}
						marks := markSet(doc)
						if len(marks) == 0 {
							continue
						}
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							f.TypeMarks[tn] = marks
						}
					}
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			f.named = append(f.named, named)
		}
	}
	for _, fi := range infos {
		if fi.Decl.Body == nil {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cs := f.resolveCall(fi.Pkg, call); cs != nil {
				fi.Calls = append(fi.Calls, cs)
				f.sites[call] = cs
			}
			return true
		})
	}
	return f
}

// resolveCall classifies one call expression. It returns nil for non-calls
// that parse as CallExpr (type conversions, builtins, immediately invoked
// literals — the enclosing function's own body covers those).
func (f *Facts) resolveCall(pkg *Package, call *ast.CallExpr) *CallSite {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return nil
	}
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation.
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(e.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(e.X)
	}
	cs := &CallSite{Call: call}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return nil
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			cs.Callees = []*types.Func{fn}
		} else {
			cs.Dynamic = true
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				cs.Dynamic = true // func-typed field
				break
			}
			if recv := sel.Recv(); types.IsInterface(recv) {
				cs.Iface = true
				cs.Callees = f.implementers(recv, fn)
			} else {
				cs.Callees = []*types.Func{fn}
			}
		} else if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			cs.Callees = []*types.Func{fn} // qualified pkg.F
		} else {
			cs.Dynamic = true
		}
	default:
		cs.Dynamic = true
	}
	return cs
}

// implementers finds every loaded concrete type whose method set satisfies
// the interface method m on receiver type recv, returning the concrete
// methods in deterministic order.
func (f *Facts) implementers(recv types.Type, m *types.Func) []*types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return []*types.Func{m}
	}
	key := types.TypeString(recv, nil) + "\x00" + m.Id()
	if out, ok := f.implCache[key]; ok {
		return out
	}
	seen := map[*types.Func]bool{}
	var out []*types.Func
	for _, named := range f.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	f.implCache[key] = out
	return out
}

// Info returns fn's summary, or nil when fn has no declaration in the
// loaded packages (standard library, or no body to summarize).
func (f *Facts) Info(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return f.Funcs[fn.Origin()]
}

// Site returns the resolved call site for a call expression indexed during
// BuildFacts, or nil for conversions/builtins.
func (f *Facts) Site(call *ast.CallExpr) *CallSite { return f.sites[call] }

// Marked returns every function carrying the marker, in deterministic
// order. These are the roots interprocedural analyzers traverse from.
func (f *Facts) Marked(mark string) []*types.Func {
	var out []*types.Func
	//lint:allow mapiterorder (result is sorted immediately below)
	for fn, fi := range f.Funcs {
		if fi.Marks[mark] {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// HasMark reports whether fn's declaration carries the marker.
func (f *Facts) HasMark(fn *types.Func, mark string) bool {
	fi := f.Info(fn)
	return fi != nil && fi.Marks[mark]
}

// TypeMarked reports whether t (after unwrapping pointers, slices, and
// aliases) is a named type whose declaration carries the marker.
func (f *Facts) TypeMarked(t types.Type, mark string) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return f.TypeMarks[u.Obj()][mark]
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return false
		}
	}
}

// Allowed reports whether a //lint:allow annotation for analyzer covers
// pos, anywhere in the loaded packages. Interprocedural analyzers use this
// to prune traversal at suppressed call sites: the suppression vouches for
// the whole subtree behind the call.
func (f *Facts) Allowed(pos token.Pos, analyzer string) bool {
	if f.fset == nil {
		return false
	}
	return f.allows.allows(f.fset.Position(pos), analyzer)
}
