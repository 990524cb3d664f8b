package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FnvKey guards PR 5's rendered-string-key removal: the engine's join/dedup
// containers and the lineage compilers' memo (now internal/clauseset's one
// store behind both OBDD and d-tree) used to key maps by
// fmt.Sprintf-rendered tuples and clause sets, which allocated a string per
// lookup and dominated the hot-path profiles. They now hash with
// prob.FNV*/table.HashOn into integer-keyed structures. This analyzer flags
// a string built by fmt.Sprintf/fmt.Sprint or by non-constant concatenation
// being used as a map key inside the hot-path packages.
var FnvKey = &Analyzer{
	Name: "fnvkey",
	Doc: "flags fmt.Sprintf/string-concatenation map keys in the engine/clauseset/obdd/dtree/conf/prob/table " +
		"hot paths; hash with prob.FNV*/table.HashOn into integer keys instead",
	Run: runFnvKey,
}

var fnvKeyPkgs = []string{
	"repro/internal/engine",
	"repro/internal/clauseset",
	"repro/internal/obdd",
	"repro/internal/dtree",
	"repro/internal/conf",
	"repro/internal/prob",
	"repro/internal/table",
}

func runFnvKey(p *Pass) {
	if !pkgIn(p, fnvKeyPkgs...) {
		return
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		funcBodies(f, func(_ ast.Node, body *ast.BlockStmt) {
			checkFnvKeyBody(p, body)
		})
	}
}

func checkFnvKeyBody(p *Pass, body *ast.BlockStmt) {
	// renderedAt maps a local string variable to the position of the
	// rendering expression it was (simply) assigned from, one level deep:
	//   key := fmt.Sprintf(...); m[key] = v
	renderedAt := make(map[types.Object]token.Pos)
	walkShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objOf(p.TypesInfo, id)
			if obj == nil {
				continue
			}
			if pos, bad := fnvRenderedString(p, as.Rhs[i]); bad {
				renderedAt[obj] = pos
			} else {
				delete(renderedAt, obj) // reassigned to something clean
			}
		}
		return true
	})

	walkShallow(body, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		mt, ok := types.Unalias(typeDeref(p.TypesInfo.TypeOf(idx.X))).(*types.Map)
		if !ok {
			return true
		}
		if b, ok := mt.Key().Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
			return true
		}
		key := ast.Unparen(idx.Index)
		if _, bad := fnvRenderedString(p, key); bad {
			p.Reportf(idx.Index.Pos(), "map key built by string rendering allocates per lookup; hash the components with prob.FNV*/table.HashOn and key the map by uint64 (see PR 5's container rework)")
			return true
		}
		if id, ok := key.(*ast.Ident); ok {
			if obj := objOf(p.TypesInfo, id); obj != nil {
				if _, bad := renderedAt[obj]; bad {
					p.Reportf(idx.Index.Pos(), "map key %s was built by string rendering, which allocates per lookup; hash the components with prob.FNV*/table.HashOn and key the map by uint64 (see PR 5's container rework)", id.Name)
				}
			}
		}
		return true
	})
}

// fnvRenderedString reports whether e renders a string at runtime: a
// fmt.Sprintf/Sprint/Sprintln call or a non-constant string concatenation.
func fnvRenderedString(p *Pass, e ast.Expr) (token.Pos, bool) {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.CallExpr:
		if pkg, name := pkgFunc(p.TypesInfo, v); pkg == "fmt" {
			switch name {
			case "Sprintf", "Sprint", "Sprintln":
				return v.Pos(), true
			}
		}
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return token.NoPos, false
		}
		t := p.TypesInfo.TypeOf(v)
		if t == nil {
			return token.NoPos, false
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsString == 0 {
			return token.NoPos, false
		}
		// Fully constant concatenation is folded at compile time; only a
		// runtime concat allocates.
		if p.TypesInfo.Types[v].Value != nil {
			return token.NoPos, false
		}
		return v.Pos(), true
	}
	return token.NoPos, false
}
