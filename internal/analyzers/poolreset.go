package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolReset guards the pooled-builder idiom: compile-kernel builders (and
// anything else with interning tables or arenas) are recycled through
// sync.Pool, and a value pulled from the pool still holds the previous
// use's memo state — it must be Reset before use or the compile is silently
// wrong. The tree's one pooling site is conf's per-answer driver,
// compileLineage, which pools a tier-chosen state type whose kernel builder
// resets itself on every run; for a pool of a concrete type the blessed
// shape is
//
//	b, _ := pool.Get().(*T)
//	if b == nil { b = NewT(...) } else { b.Reset(...) }
//
// The analyzer flags a sync.Pool.Get whose asserted type has a Reset method
// when no Reset call on the retrieved variable appears anywhere later in the
// same function.
var PoolReset = &Analyzer{
	Name: "poolreset",
	Doc: "flags sync.Pool.Get of a type with a Reset method when the value is never Reset " +
		"in the same function; pooled builders carry the previous use's state",
	Run: runPoolReset,
}

func runPoolReset(p *Pass) {
	for _, f := range p.Files {
		funcBodies(f, func(_ ast.Node, body *ast.BlockStmt) {
			checkPoolResetBody(p, body)
		})
	}
}

// poolGet matches pool.Get() where pool has type sync.Pool or *sync.Pool.
func poolGet(p *Pass, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	recv, name := methodCall(p.TypesInfo, call)
	if name != "Get" || recv == nil {
		return nil, false
	}
	return call, isNamedType(p.TypesInfo.TypeOf(recv), "sync", "Pool")
}

func checkPoolResetBody(p *Pass, body *ast.BlockStmt) {
	// Pass 1: collect `v := pool.Get().(*T)` (with or without the ", ok")
	// where T has a Reset method.
	type getSite struct {
		v   types.Object // nil when the result is not bound to a plain ident
		pos token.Pos
	}
	var gets []getSite
	walkShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil {
			return true
		}
		call, isPool := poolGet(p, ta.X)
		if !isPool {
			return true
		}
		t := p.TypesInfo.TypeOf(ta.Type)
		if t == nil || !hasMethod(t, "Reset") {
			return true
		}
		site := getSite{pos: call.Pos()}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			site.v = objOf(p.TypesInfo, id)
		}
		gets = append(gets, site)
		return true
	})
	if len(gets) == 0 {
		return
	}

	// Pass 2: find Reset calls and remember each receiver identifier's
	// declaration object.
	resetRecvs := make(map[types.Object][]token.Pos)
	walkShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name := methodCall(p.TypesInfo, call)
		if name != "Reset" || recv == nil {
			return true
		}
		// b.Reset(...) and cs.b.Reset(...) both reset what the pool
		// handed back; key on the root identifier.
		root := recv
		for {
			if sel, ok := ast.Unparen(root).(*ast.SelectorExpr); ok {
				root = sel.X
				continue
			}
			break
		}
		if id, ok := ast.Unparen(root).(*ast.Ident); ok {
			if obj := objOf(p.TypesInfo, id); obj != nil {
				resetRecvs[obj] = append(resetRecvs[obj], call.Pos())
			}
		}
		return true
	})

	for _, g := range gets {
		if g.v != nil {
			found := false
			for _, pos := range resetRecvs[g.v] {
				if pos > g.pos {
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		p.Reportf(g.pos, "value from sync.Pool.Get has a Reset method but is never Reset in this function; a pooled builder still holds the previous use's memo/arena state (see conf.compileLineage, the per-answer driver, whose tier callbacks Reset before compiling)")
	}
}
