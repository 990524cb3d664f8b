package analyzers

import (
	"go/ast"
	"go/types"
)

// BatchAlias guards PR 5's batch-storage contract: tuples handed out by
// Operator.NextBatch — and, one at a time, by (*Cursor).Next, which reads a
// reused batch — live in reused buffers. They are valid only until the next
// NextBatch call (the cursor's next refill) unless the source operator
// promises StableTuples. A consumer that retains such a tuple past the batch
// (appending it to a long-lived slice, storing it in a struct field) without
// a table.Slab clone (or Cursor.Keep) sees the tuple silently overwritten by
// a later batch.
//
// The analyzer tracks, per function, the batch slices passed to
// NextBatch-shaped calls and the tuples read out of them (indexing or
// ranging, one aliasing level deep), plus the tuples returned by
// Cursor.Next-shaped calls, and flags a bare batch tuple being
//
//   - appended to a slice, or
//   - stored through a selector (struct field) or into a non-parameter
//     slice/map element.
//
// Passing the tuple through any call (t.Clone(), slab.Clone(t), c.Keep(t),
// emit(t)) is treated as a hand-off that honors the contract. Writing into a
// []Tuple *parameter* is the operator side of the protocol (filling the
// caller's batch) and is allowed. Sites that legitimately retain a tuple only
// for the current batch's lifetime (e.g. the hash join's probe cursor)
// document themselves with //sproutvet:allow batchalias <reason>.
//
// The columnar tier (PR 9) has the same contract one level up: a
// table.ColBatch filled by ColOperator.NextColBatch reuses its column
// storage, so the column slices (Ints, Floats, Strs, Bytes, Offs, Codes,
// Sel, …) and whole ColVec headers read out of such a batch are valid only
// until the next NextColBatch call. The analyzer tracks the batches passed
// to NextColBatch-shaped calls and flags storing a batch-reaching slice or
// ColVec into a struct field or long-lived element, or appending the slice
// header itself to a slice-of-slices. Writes into a ColBatch-typed
// destination (dst.Cols[i] = …, dst.Sel = …) are the operator side of the
// protocol and allowed; appending with ... copies the elements out and is
// allowed too.
//
// The same holds on the receiving end of a drain: the batch handed to a
// sink's AddBatch(b *table.ColBatch) (engine.Sink) is borrowed until the call
// returns, so inside such a method the parameter is tracked like a refilled
// batch. A copying consumer — (*storage.ExternalSorter).AddBatch, which
// copies the live rows into its run buffer — passes; one that keeps a column
// slice or ColVec of its argument is flagged.
var BatchAlias = &Analyzer{
	Name: "batchalias",
	Doc: "flags retaining tuples obtained from NextBatch or Cursor.Next (or column slices from NextColBatch) " +
		"without a clone; batch buffers are reused and later batches overwrite retained storage",
	Run: runBatchAlias,
}

func runBatchAlias(p *Pass) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		funcBodies(f, func(decl ast.Node, body *ast.BlockStmt) {
			checkBatchAliasBody(p, decl, body)
			checkColBatchAliasBody(p, decl, body)
		})
	}
}

// isTupleSlice reports whether t is []table.Tuple.
func isTupleSlice(t types.Type) bool {
	sl, ok := types.Unalias(t).(*types.Slice)
	if !ok {
		return false
	}
	return isNamedType(sl.Elem(), "internal/table", "Tuple")
}

// batchSourceCall reports whether call hands out reused batch storage and
// returns the batch-slice argument: X.NextBatch(dst).
func batchSourceCall(p *Pass, call *ast.CallExpr) (batch ast.Expr, ok bool) {
	if recv, name := methodCall(p.TypesInfo, call); recv != nil && name == "NextBatch" && len(call.Args) == 1 {
		return call.Args[0], true
	}
	return nil, false
}

// cursorNextCall reports whether e is c.Next() on a Cursor: its first result
// is a tuple of the cursor's reused batch, valid until the next refill.
func cursorNextCall(p *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, name := methodCall(p.TypesInfo, call)
	if recv == nil || name != "Next" || len(call.Args) != 0 {
		return false
	}
	n := namedFrom(p.TypesInfo.TypeOf(recv))
	return n != nil && n.Obj().Name() == "Cursor"
}

func checkBatchAliasBody(p *Pass, decl ast.Node, body *ast.BlockStmt) {
	info := p.TypesInfo

	// Parameters of this function: writes into a []Tuple parameter are the
	// operator filling its caller's batch, not retention.
	params := make(map[types.Object]bool)
	var ftype *ast.FuncType
	switch d := decl.(type) {
	case *ast.FuncDecl:
		ftype = d.Type
	case *ast.FuncLit:
		ftype = d.Type
	}
	if ftype != nil && ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if obj := objOf(info, name); obj != nil {
					params[obj] = true
				}
			}
		}
	}

	// Pass 1: batch slices = []Tuple vars passed as the dst of a batch
	// source call in this function.
	batches := make(map[types.Object]bool)
	walkShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, ok := batchSourceCall(p, call)
		if !ok {
			return true
		}
		if obj := rootObj(p, arg); obj != nil && isTupleSlice(typeDeref(obj.Type())) {
			batches[obj] = true
		}
		return true
	})
	// isBatchIndex reports whether e reads an element out of a batch slice:
	// buf[i], buf[:n][i], etc.
	isBatchIndex := func(e ast.Expr) bool {
		idx, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok {
			return false
		}
		obj := rootObj(p, idx.X)
		return obj != nil && batches[obj]
	}

	// Pass 2: batch tuples = range vars over a batch slice, one level of
	// plain-ident aliasing (t := buf[i]), and the tuple a cursor hands out
	// (t, ok, err := c.Next()).
	elems := make(map[types.Object]bool)
	walkShallow(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			if obj := rootObj(p, v.X); obj != nil && batches[obj] {
				if id, ok := v.Value.(*ast.Ident); ok && id.Name != "_" {
					if o := objOf(info, id); o != nil {
						elems[o] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(v.Rhs) == 1 && len(v.Lhs) == 3 && cursorNextCall(p, v.Rhs[0]) {
				if id, ok := v.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if o := objOf(info, id); o != nil {
						elems[o] = true
					}
				}
				return true
			}
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if isBatchIndex(v.Rhs[i]) {
					if o := objOf(info, id); o != nil {
						elems[o] = true
					}
				}
			}
		}
		return true
	})
	if len(batches) == 0 && len(elems) == 0 {
		return
	}

	// isBatchTuple: a bare expression denoting a tuple that still aliases
	// batch storage — an element read or a tracked alias ident.
	isBatchTuple := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if isBatchIndex(e) {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if o := objOf(info, id); o != nil && elems[o] {
				return true
			}
		}
		return false
	}

	// Pass 3: flag retention of bare batch tuples.
	walkShallow(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if !isBuiltinAppend(p, v) {
				return true
			}
			for _, arg := range v.Args[1:] {
				if isBatchTuple(arg) {
					p.Reportf(arg.Pos(), "tuple from a reused batch buffer is appended without a clone; later batches overwrite it — clone through a table.Slab or Cursor.Keep, or source from a StableTuples operator")
				} else if se, ok := ast.Unparen(arg).(*ast.SliceExpr); ok && v.Ellipsis.IsValid() {
					if obj := rootObj(p, se.X); obj != nil && batches[obj] {
						p.Reportf(arg.Pos(), "batch buffer contents are appended wholesale without clones; later batches overwrite them — clone each through a table.Slab, or source from a StableTuples operator")
					}
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if !isBatchTuple(v.Rhs[i]) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					p.Reportf(v.Rhs[i].Pos(), "tuple from a reused batch buffer is stored in a field without a clone; it is only valid until the next NextBatch call (a cursor's next refill) — clone through a table.Slab or Cursor.Keep, or document the single-batch lifetime with an allow directive")
				case *ast.IndexExpr:
					obj := rootObj(p, l.X)
					if obj != nil && (params[obj] || batches[obj]) {
						continue // filling the caller's batch, or shuffling within one
					}
					p.Reportf(v.Rhs[i].Pos(), "tuple from a reused batch buffer is stored in long-lived storage without a clone; later batches overwrite it — clone through a table.Slab or Cursor.Keep")
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
// storage and returns the batch argument: X.NextColBatch(dst).
func colBatchSourceCall(p *Pass, call *ast.CallExpr) (batch ast.Expr, ok bool) {
	if recv, name := methodCall(p.TypesInfo, call); recv != nil && name == "NextColBatch" && len(call.Args) == 1 {
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
		// A call result is a hand-off (HashInto, SelBuf, …): the callee is
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
