// Package obszerocost enforces the zero-overhead observability contract:
// observer/tracer event structs are only constructed when a consumer is
// actually installed.
//
// The observability layer guarantees that a run with no tracer, metrics
// registry, or fault checker behaves bit-identically to an uninstrumented
// run — "with no Observer installed no event is built". That holds only if
// every construction of an event struct is dominated by a nil check of its
// consumer. Event types opt in with a //lint:event directive in their
// declaration doc comment (read through lint.Facts like every other
// marker); a composite literal of a marked type must appear in one of the
// guarded shapes:
//
//   - inside the body of an if whose condition nil-checks a consumer:
//     the kernel's `if n.cfg.Observer != nil { ... ObsEvent{...} ... }`,
//     and the media's `if b.hooks.Transmit != nil { ... }` and
//     `if n.hooks.Delivery != nil { ... }` in internal/bus (Send,
//     deliver) and internal/netx (send, handoff)
//   - inside a function that opens with a guard clause: core's observe
//     and deltat's emit (`if e.cfg.Observer == nil { return }`)
//
// Each of those hooks is installed only by the network's event stream
// (soda.Network.Subscribe), and only for kinds that have a subscriber.
package obszerocost

import (
	"go/ast"
	"go/types"

	"soda/lint"
)

// Analyzer implements the check.
var Analyzer = &lint.Analyzer{
	Name: "obszerocost",
	Doc:  "observer event construction (types marked lint:event) must be guarded by a nil-consumer check",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		lint.WalkStack(f, func(stack []ast.Node) {
			clit, ok := stack[len(stack)-1].(*ast.CompositeLit)
			if !ok {
				return
			}
			tv, ok := pass.Info.Types[clit]
			if !ok {
				return
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || !pass.Facts.TypeMarked(named, "event") {
				return
			}
			if !guarded(stack) {
				pass.Reportf(clit.Pos(),
					"%s is an observer event (lint:event) but is constructed without a nil-consumer guard; build it under `if consumer != nil` or inside a guard-clause emit helper to keep disabled observability zero-cost", named.Obj().Name())
			}
		})
	}
	return nil
}

// guarded walks the ancestor stack of a composite literal looking for one
// of the accepted guard shapes.
func guarded(stack []ast.Node) bool {
	lit := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			// Literal in the then-branch of a `!= nil` condition.
			if lint.IsNilCheck(anc.Cond, true) && lint.Contains(anc.Body, lit) {
				return true
			}
		case *ast.FuncDecl:
			if opensWithNilGuard(anc.Body) {
				return true
			}
		case *ast.FuncLit:
			if opensWithNilGuard(anc.Body) {
				return true
			}
		}
	}
	return false
}

// opensWithNilGuard reports whether the function body's first statement is
// `if x == nil { return ... }`.
func opensWithNilGuard(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || !lint.IsNilCheck(ifs.Cond, false) || len(ifs.Body.List) == 0 {
		return false
	}
	_, isReturn := ifs.Body.List[0].(*ast.ReturnStmt)
	return isReturn
}
