// Package noalloc proves functions on the REQUEST hot path transitively
// allocation-free.
//
// A function annotated //lint:hotpath is a root: it, and everything
// reachable from it through the module call graph (lint.Facts), must not
// allocate. The analyzer flags every construct that allocates or may
// allocate — make, new, growing append, capturing closures, method values
// (x.M not in call position, which binds its receiver into a closure),
// composite literals that escape or carry slice/map backing stores, string
// concatenation and string<->[]byte conversions, map writes, interface
// boxing of non-pointer values at call sites — plus every call it cannot
// prove harmless: dynamic calls through func values and calls into
// packages outside the module (a small allowlist covers the known-clean
// encoding/binary and math/bits helpers).
//
// Two conventions keep the contract usable:
//
//   - Caller-budgeted append: append whose destination is a slice
//     parameter of the enclosing function is not flagged. The buffer's
//     creator paid for the capacity (frame.AppendMessage(dst, m) style);
//     growth beyond it is the creator's accounting error, visible at the
//     make site.
//   - Counted suppressions: every allocation that exists on the hot path
//     today carries //lint:allow noalloc (counted: ...). The suppression
//     budget enumerates the allocs/op measured by
//     BenchmarkRequestRoundTrip and BenchmarkBulkPut, so a new allocation
//     anywhere on the path is an unsuppressed finding and fails CI — the
//     number can only go down. The proof trusts each amortized: reason;
//     the root package's TestRequestRoundTripAllocBudget and
//     TestBulkPutAllocBudget check the count dynamically, which is what
//     caught a false one. A suppression on a call site additionally
//     prunes traversal into the callee (the annotation vouches for the
//     subtree), which is how cold branches (e.g. peer-death teardown)
//     stay out of scope.
//   - Bound-once callbacks: scheduled work on the path rides records its
//     owner recycles, each with a method value bound when the record is
//     first allocated. That binding site carries an amortized: allow, and
//     the method is a //lint:hotpath root of its own, because the
//     scheduler calls it through a func value the traversal cannot follow.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"soda/lint"
)

// Analyzer implements the check.
var Analyzer = &lint.Analyzer{
	Name: "noalloc",
	Doc:  "functions marked //lint:hotpath must be transitively allocation-free; every surviving allocation needs a counted suppression",
	Run:  run,
}

// cleanCalls never allocate; keyed by package path + "." + function or
// method name (receiver types collapsed: binary.BigEndian's methods hang
// off an unexported type).
var cleanCalls = map[string]bool{
	"encoding/binary.Uint16":    true,
	"encoding/binary.Uint32":    true,
	"encoding/binary.Uint64":    true,
	"encoding/binary.PutUint16": true,
	"encoding/binary.PutUint32": true,
	"encoding/binary.PutUint64": true,
}

// appendLikeCalls behave like the append builtin: they extend their first
// argument and return it, so the caller-budgeted-append exemption applies.
var appendLikeCalls = map[string]bool{
	"encoding/binary.AppendUint16": true,
	"encoding/binary.AppendUint32": true,
	"encoding/binary.AppendUint64": true,
}

// cleanPkgs are packages none of whose functions allocate.
var cleanPkgs = map[string]bool{
	"math/bits": true,
}

func callKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

type finding struct {
	pos token.Pos
	msg string
}

func run(pass *lint.Pass) error {
	facts := pass.Facts
	roots := facts.Marked("hotpath")
	if len(roots) == 0 {
		return nil
	}
	visited := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if visited[fn.Origin()] {
			continue
		}
		visited[fn.Origin()] = true
		fi := facts.Info(fn)
		if fi == nil || fi.Decl.Body == nil {
			continue
		}
		if lint.RealtimeZoneActive(fi.Pkg) {
			// The declared real-time zone (the socket backend) is reachable
			// from hot-path roots only through the wire.Iface seam's dynamic
			// dispatch; it never executes inside a measured simulation, so
			// its allocations are not hot-path allocations. Traversal stops
			// at the zone boundary.
			continue
		}
		findings, callees := analyzeFunc(facts, fi)
		if fi.Pkg.Types == pass.Pkg {
			for _, f := range findings {
				pass.Reportf(f.pos, "%s (hot path from //lint:hotpath roots)", f.msg)
			}
		}
		queue = append(queue, callees...)
	}
	return nil
}

// analyzeFunc scans one hot function's body for allocation sites and
// classifies its outgoing calls. Function literal bodies are scanned as
// part of the enclosing function — whatever a scheduled closure does
// happens on the path too — with the literal's own parameters taking over
// the append exemption. A //lint:allow noalloc on a call site suppresses
// both the finding and the descent into the callee.
func analyzeFunc(facts *lint.Facts, fi *lint.FuncInfo) ([]finding, []*types.Func) {
	var findings []finding
	var callees []*types.Func
	info := fi.Pkg.Info

	report := func(pos token.Pos, msg string) {
		findings = append(findings, finding{pos: pos, msg: msg})
	}

	// params is the active caller-budgeted-append set: parameters (and
	// receiver) of the innermost function, decl or literal.
	var scan func(body ast.Node, params map[*types.Var]bool)

	// called holds the selectors in call position, so that x.M() is a call
	// and only a bare x.M a method value. ast.Inspect visits a call before
	// its Fun, so the mark is always in place in time.
	called := map[*ast.SelectorExpr]bool{}

	isParam := func(params map[*types.Var]bool, e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := info.Uses[id].(*types.Var)
		return ok && params[v]
	}

	checkCall := func(call *ast.CallExpr, params map[*types.Var]bool) {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsBuiltin() {
			name := builtinName(call.Fun)
			switch name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !isParam(params, call.Args[0]) {
					report(call.Pos(), "append to a non-parameter slice may grow its backing array")
				}
			}
			return
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			checkConversion(info, call, report)
			return
		}
		cs := facts.Site(call)
		if cs == nil {
			return
		}
		if facts.Allowed(call.Pos(), "noalloc") {
			return // suppression vouches for the whole subtree
		}
		if cs.Dynamic {
			report(call.Pos(), "dynamic call through a func value; allocation-freedom unprovable")
			return
		}
		boxChecked := false
		for _, callee := range cs.Callees {
			key := callKey(callee)
			switch {
			case cleanCalls[key]:
			case appendLikeCalls[key]:
				if len(call.Args) > 0 && !isParam(params, call.Args[0]) {
					report(call.Pos(), "append-like call on a non-parameter slice may grow its backing array")
				}
			case callee.Pkg() != nil && cleanPkgs[callee.Pkg().Path()]:
			case facts.Info(callee) != nil:
				callees = append(callees, callee)
				if !boxChecked { // interface impls share one signature
					boxChecked = true
					checkBoxing(info, call, callee, report)
				}
			default:
				report(call.Pos(), "call to "+callee.FullName()+" outside the module; allocation-freedom unprovable")
			}
		}
	}

	scan = func(body ast.Node, params map[*types.Var]bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if caps := capturedVars(info, n); len(caps) > 0 {
					report(n.Pos(), "closure captures variables and allocates when created")
				}
				scan(n.Body, paramSet(info, n.Type, nil))
				return false
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					called[sel] = true
				}
				checkCall(n, params)
			case *ast.SelectorExpr:
				if s, ok := info.Selections[n]; ok && s.Kind() == types.MethodVal && !called[n] {
					report(n.Pos(), "method value binds its receiver into a closure and allocates when it escapes")
				}
			case *ast.CompositeLit:
				switch info.Types[n].Type.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						report(n.Pos(), "address of composite literal escapes to the heap")
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isString(info, n.X) {
					report(n.Pos(), "string concatenation allocates")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if _, isMap := info.Types[ix.X].Type.Underlying().(*types.Map); isMap {
							report(ix.Pos(), "map write may allocate")
						}
					}
				}
			case *ast.GoStmt:
				report(n.Pos(), "go statement allocates a goroutine stack")
			}
			return true
		})
	}

	scan(fi.Decl.Body, declParamSet(info, fi.Decl))
	return findings, callees
}

// builtinName extracts the builtin's identifier ("make", "append", ...).
func builtinName(fun ast.Expr) string {
	if id, ok := ast.Unparen(fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkConversion flags allocating conversions: string <-> []byte/[]rune
// and boxing a non-pointer value into an interface.
func checkConversion(info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	to := info.Types[call.Fun].Type
	from := info.Types[call.Args[0]].Type
	switch {
	case isStringType(to) && isByteOrRuneSlice(from):
		report(call.Pos(), "[]byte-to-string conversion allocates")
	case isByteOrRuneSlice(to) && isStringType(from):
		report(call.Pos(), "string-to-[]byte conversion allocates")
	case types.IsInterface(to) && boxes(from):
		report(call.Pos(), "conversion boxes a non-pointer value into an interface")
	}
}

// checkBoxing flags arguments whose concrete non-pointer values convert
// implicitly to interface parameters of the callee (each such conversion
// may allocate).
func checkBoxing(info *types.Info, call *ast.CallExpr, callee *types.Func, report func(token.Pos, string)) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return // f(xs...) passes the slice through, no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.Types[arg].Type
		if at == nil {
			continue
		}
		if types.IsInterface(pt) && boxes(at) {
			report(arg.Pos(), "argument boxes a non-pointer value into an interface parameter")
		}
	}
}

// boxes reports whether converting a value of type t to an interface may
// allocate: true for concrete non-pointer-shaped types. Pointers, channels,
// maps, funcs, and unsafe pointers store directly in the interface word.
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	}
	return true
}

func isString(info *types.Info, e ast.Expr) bool {
	return isStringType(info.Types[e].Type)
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// declParamSet collects the parameters and receiver of a function
// declaration.
func declParamSet(info *types.Info, decl *ast.FuncDecl) map[*types.Var]bool {
	return paramSet(info, decl.Type, decl.Recv)
}

func paramSet(info *types.Info, ft *ast.FuncType, recv *ast.FieldList) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					out[v] = true
				}
			}
		}
	}
	add(recv)
	add(ft.Params)
	return out
}

// capturedVars returns the variables lit's body references that are
// declared outside the literal (excluding package-level variables, which
// need no closure cell). A literal with no captures compiles to a static
// function value and does not allocate.
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // the literal's own local or parameter
		}
		if pkgLevel(v) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// pkgLevel reports whether v is a package-scoped variable.
func pkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Pkg().Scope().Lookup(v.Name()) == v
}
