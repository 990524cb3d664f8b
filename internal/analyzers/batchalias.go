package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BatchAlias guards the engine's borrowed-storage contract. A comparator
// sort's stream (storage.TupleIterator, what a comparator sorter's Finish
// returns) lends each tuple until its next Next, which may write the
// following tuple over it. A consumer that retains such a tuple — appending
// it to a slice, storing it in a struct field or a slice/map element —
// without a clone sees it silently overwritten. The analyzer tracks, per
// function, the tuples assigned from a TupleIterator's Next and flags those
// retentions. Passing the tuple through any call (t.Clone(), b.AppendRow(t),
// emit(t)) is a hand-off that honors the contract. A site that retains a
// tuple exactly until the Next that invalidates it documents itself with
// //sproutvet:allow batchalias <reason>.
//
// A table.ColBatch filled by ColOperator.NextColBatch has the same contract
// one level up: it reuses its column storage, so the column slices (Ints,
// Floats, Strs, Bytes, Offs, Codes, Sel, …) and whole ColVec headers read
// out of such a batch are valid only until the next NextColBatch call. The
// analyzer tracks the batches passed to NextColBatch-shaped calls — the
// engine's operators and a key sort's stream (storage.SortedBatches) alike,
// the batch given as b or as &b — and flags storing a batch-reaching slice
// or ColVec into a struct field or long-lived element, or appending the
// slice header itself to a slice-of-slices.
// Writes into a ColBatch-typed destination (dst.Cols[i] = …, dst.Sel = …)
// are the operator side of the protocol and allowed; appending with ...
// copies the elements out and is allowed too. A projection (engine's
// ColProject) is such an operator: it swaps vector headers between its
// input's batch and its consumer's, moving the storage rather than sharing
// it, so each backing array still has one holder.
//
// The same holds on the receiving end of a drain: the batch handed to a
// sink's AddBatch(b *table.ColBatch) (engine.Sink) is borrowed until the call
// returns, so inside such a method the parameter is tracked like a refilled
// batch. A copying consumer — (*storage.ExternalSorter).AddBatch, which
// copies the live rows into its run buffer — passes; one that keeps a column
// slice or ColVec of its argument is flagged.
var BatchAlias = &Analyzer{
	Name: "batchalias",
	Doc: "flags retaining tuples lent by a sorted stream's Next (or column slices from NextColBatch) " +
		"without a clone; the lender reuses that storage and overwrites what is retained",
	Run: runBatchAlias,
}

func runBatchAlias(p *Pass) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		funcBodies(f, func(decl ast.Node, body *ast.BlockStmt) {
			checkLentTupleBody(p, body)
			checkColBatchAliasBody(p, decl, body)
		})
	}
}

// iterNextCall reports whether e is it.Next() on a storage.TupleIterator:
// its first result is a lent tuple, valid until the next Next.
func iterNextCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, name := methodCall(p.TypesInfo, call)
	return recv != nil && name == "Next" && len(call.Args) == 0 &&
		isNamedType(p.TypesInfo.TypeOf(recv), "internal/storage", "TupleIterator")
}

// checkLentTupleBody is the tuple half of the contract: flag retention of
// the tuples a TupleIterator's Next lends (t, ok, err := it.Next()).
func checkLentTupleBody(p *Pass, body *ast.BlockStmt) {
	info := p.TypesInfo
	lent := make(map[types.Object]bool)
	walkShallow(body, func(n ast.Node) bool {
		v, ok := n.(*ast.AssignStmt)
		if !ok || len(v.Rhs) != 1 || len(v.Lhs) != 3 || !iterNextCall(p, v.Rhs[0]) {
			return true
		}
		if id, ok := v.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if o := objOf(info, id); o != nil {
				lent[o] = true
			}
		}
		return true
	})
	if len(lent) == 0 {
		return
	}
	isLent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && lent[objOf(info, id)]
	}
	walkShallow(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if !isBuiltinAppend(p, v) {
				return true
			}
			for _, arg := range v.Args[1:] {
				if isLent(arg) {
					p.Reportf(arg.Pos(), "tuple lent by a sorted stream is appended without a clone; the next Next overwrites it — clone it (Tuple.Clone) or copy its cells out")
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if !isLent(v.Rhs[i]) {
					continue
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					p.Reportf(v.Rhs[i].Pos(), "tuple lent by a sorted stream is stored in a field without a clone; it is only valid until the next Next — clone it, or document that lifetime with an allow directive")
				case *ast.IndexExpr:
					p.Reportf(v.Rhs[i].Pos(), "tuple lent by a sorted stream is stored in long-lived storage without a clone; the next Next overwrites it — clone it (Tuple.Clone)")
				}
			}
		}
		return true
	})
}

// isColBatch reports whether t (possibly behind a pointer) is
// table.ColBatch.
func isColBatch(t types.Type) bool {
	return isNamedType(t, "internal/table", "ColBatch")
}

// aliasesColStorage reports whether an expression's static type is storage
// that aliases a column batch when read out of one: any slice (a column's
// typed cells, the selection vector, flat bytes/offsets) or a ColVec header
// (which carries all of those).
func aliasesColStorage(t types.Type) bool {
	if _, ok := types.Unalias(t).(*types.Slice); ok {
		return true
	}
	return isNamedType(t, "internal/table", "ColVec")
}

// colBatchSourceCall reports whether call refills reused columnar batch
// storage and returns the batch argument: X.NextColBatch(dst), or the b of
// X.NextColBatch(&b) for a batch held by value.
func colBatchSourceCall(p *Pass, call *ast.CallExpr) (batch ast.Expr, ok bool) {
	if recv, name := methodCall(p.TypesInfo, call); recv != nil && name == "NextColBatch" && len(call.Args) == 1 {
		if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return u.X, true
		}
		return call.Args[0], true
	}
	return nil, false
}

// baseIdentObj walks an index/selector/slice chain down to its base
// identifier's object (b for b.Cols[i].Ints), unlike rootObj which stops at
// the first selected field.
func baseIdentObj(p *Pass, expr ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return objOf(p.TypesInfo, v)
		case *ast.IndexExpr:
			expr = v.X
		case *ast.SelectorExpr:
			expr = v.X
		case *ast.SliceExpr:
			expr = v.X
		case *ast.StarExpr:
			expr = v.X
		default:
			return nil
		}
	}
}

// checkColBatchAliasBody is the ColBatch half of the batch-storage contract:
// flag retention of column slices or ColVec headers that reach a batch some
// NextColBatch call refills.
func checkColBatchAliasBody(p *Pass, decl ast.Node, body *ast.BlockStmt) {
	info := p.TypesInfo

	// Pass 1: the batches this function refills — the objects (vars or
	// struct fields, via rootObj) passed as NextColBatch destinations — and,
	// in a sink's AddBatch method, the borrowed batch it was handed.
	batches := make(map[types.Object]bool)
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "AddBatch" {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := objOf(info, name); obj != nil && isColBatch(obj.Type()) {
					batches[obj] = true
				}
			}
		}
	}
	walkShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, ok := colBatchSourceCall(p, call)
		if !ok {
			return true
		}
		if obj := rootObj(p, arg); obj != nil && isColBatch(obj.Type()) {
			batches[obj] = true
		}
		return true
	})
	if len(batches) == 0 {
		return
	}

	// aliasing: e reads storage out of a tracked batch — its chain mentions
	// a tracked object and its type is a slice or ColVec header.
	aliases := make(map[types.Object]bool)
	aliasing := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil || !aliasesColStorage(t) {
			return false
		}
		// A call result is a hand-off (HashInto, …): the callee is
		// responsible for what it returns, same as the tuple rule.
		if _, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			return false
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if o := objOf(info, id); o != nil && aliases[o] {
				return true
			}
		}
		return mentionsAny(p, e, batches)
	}

	// Pass 2: one level of plain-ident aliasing (sel := b.Sel).
	walkShallow(body, func(n ast.Node) bool {
		v, ok := n.(*ast.AssignStmt)
		if !ok || len(v.Lhs) != len(v.Rhs) {
			return true
		}
		for i, lhs := range v.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && aliasing(v.Rhs[i]) {
				if o := objOf(info, id); o != nil {
					aliases[o] = true
				}
			}
		}
		return true
	})

	// Pass 3: flag retention.
	walkShallow(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if !isBuiltinAppend(p, v) || v.Ellipsis.IsValid() {
				// append(dst, b.Cols[i].Ints...) copies the cells out —
				// only retaining the slice header itself aliases.
				return true
			}
			for _, arg := range v.Args[1:] {
				if aliasing(arg) {
					p.Reportf(arg.Pos(), "column storage from a reused ColBatch is appended without a copy; the next NextColBatch overwrites it — copy the cells out (append with ...) or materialize through WriteRow/Value")
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if !aliasing(v.Rhs[i]) {
					continue
				}
				l := ast.Unparen(lhs)
				base := baseIdentObj(p, l)
				// Writing into a ColBatch (dst.Cols[i] = …, dst.Sel = …) is
				// an operator filling a batch — the protocol, not retention.
				if base != nil && isColBatch(base.Type()) {
					continue
				}
				switch l.(type) {
				case *ast.SelectorExpr:
					p.Reportf(v.Rhs[i].Pos(), "column storage from a reused ColBatch is stored in a field without a copy; it is only valid until the next NextColBatch call — copy the cells or document the single-batch lifetime with an allow directive")
				case *ast.IndexExpr:
					p.Reportf(v.Rhs[i].Pos(), "column storage from a reused ColBatch is stored in long-lived storage without a copy; the next NextColBatch overwrites it")
				}
			}
		}
		return true
	})
}
