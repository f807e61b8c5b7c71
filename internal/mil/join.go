package mil

import (
	"fmt"
	"time"

	"x100/internal/algebra"
	"x100/internal/core"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// evalJoin executes joins column-at-a-time: the right side is fully
// materialized and hashed, all left rows are probed in one pass producing
// materialized index BATs, and every output column is materialized by a
// positional join through those indices.
func (e *Engine) evalJoin(n *algebra.Join) (*rel, error) {
	left, err := e.eval(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(n.Right)
	if err != nil {
		return nil, err
	}
	if len(n.On) == 0 {
		if n.Kind != algebra.Inner {
			return nil, fmt.Errorf("mil: %v join requires equi-conditions", n.Kind)
		}
		return e.cartProd(left, right, n.Residual)
	}
	lKeys := make([]*vector.Vector, len(n.On))
	rKeys := make([]*vector.Vector, len(n.On))
	for i, cond := range n.On {
		lKeys[i] = left.col(cond.L)
		rKeys[i] = right.col(cond.R)
		if lKeys[i] == nil || rKeys[i] == nil {
			return nil, fmt.Errorf("mil: join key %s=%s not found", cond.L, cond.R)
		}
	}
	t0 := time.Now()
	// Build: hash all right rows.
	rHash := make([]uint64, right.n)
	for i, k := range rKeys {
		if err := hashFullVector(rHash, k, i == 0); err != nil {
			return nil, err
		}
	}
	table := make(map[uint64][]int32, right.n)
	for i := 0; i < right.n; i++ {
		table[rHash[i]] = append(table[rHash[i]], int32(i))
	}
	// Probe: hash all left rows.
	lHash := make([]uint64, left.n)
	for i, k := range lKeys {
		if err := hashFullVector(lHash, k, i == 0); err != nil {
			return nil, err
		}
	}
	var scalar expr.Scalar
	if n.Residual != nil {
		combined := append(left.schema.Clone(), right.schema.Clone()...)
		sc, _, err := expr.Bind(n.Residual, combined)
		if err != nil {
			return nil, err
		}
		scalar = sc
	}
	resOK := func(li int, ri int32) bool {
		if scalar == nil {
			return true
		}
		row := make([]any, 0, len(left.cols)+len(right.cols))
		for _, v := range left.cols {
			row = append(row, v.Value(li))
		}
		for _, v := range right.cols {
			row = append(row, v.Value(int(ri)))
		}
		return scalar(row).(bool)
	}
	keysEqual := func(li int, ri int32) bool {
		for i := range lKeys {
			if !valuesEqualAt(lKeys[i], li, rKeys[i], int(ri)) {
				return false
			}
		}
		return true
	}

	var lIdx, rIdx []int32
	var marks []bool
	if n.Kind == algebra.Mark {
		marks = make([]bool, 0, left.n)
	}
	for i := 0; i < left.n; i++ {
		matched := false
		for _, ri := range table[lHash[i]] {
			if !keysEqual(i, ri) || !resOK(i, ri) {
				continue
			}
			matched = true
			if n.Kind == algebra.Inner || n.Kind == algebra.LeftOuter {
				lIdx = append(lIdx, int32(i))
				rIdx = append(rIdx, ri)
			} else {
				break
			}
		}
		switch n.Kind {
		case algebra.LeftOuter:
			if !matched {
				lIdx = append(lIdx, int32(i))
				rIdx = append(rIdx, -1)
			}
		case algebra.Semi:
			if matched {
				lIdx = append(lIdx, int32(i))
			}
		case algebra.Anti:
			if !matched {
				lIdx = append(lIdx, int32(i))
			}
		case algebra.Mark:
			lIdx = append(lIdx, int32(i))
			marks = append(marks, matched)
		}
	}
	e.Trace.record(fmt.Sprintf("%s := hashjoin(%s)", e.Trace.name("s"), n.Name()),
		int64(8*(left.n+right.n)), int64(8*len(lIdx)), len(lIdx), time.Since(t0))

	// Materialize output columns through the index BATs.
	out := &rel{n: len(lIdx)}
	gatherInto := func(src *rel, idx []int32, outer bool) {
		for ci, v := range src.cols {
			t1 := time.Now()
			g := vector.New(v.Typ, len(idx))
			if outer {
				for j, r := range idx {
					if r < 0 {
						continue
					}
					g.Set(j, v.Value(int(r)))
				}
			} else {
				g.Gather(v, idx)
			}
			g.Typ = v.Typ
			out.schema = append(out.schema, src.schema[ci])
			out.cols = append(out.cols, g)
			e.Trace.record(fmt.Sprintf("%s := join(idx,%s)", e.Trace.name("s"), src.schema[ci].Name),
				int64(4*len(idx))+int64(v.Bytes()), int64(g.Bytes()), len(idx), time.Since(t1))
		}
	}
	gatherInto(left, lIdx, false)
	switch n.Kind {
	case algebra.Inner:
		gatherInto(right, rIdx, false)
	case algebra.LeftOuter:
		gatherInto(right, rIdx, true)
	case algebra.Mark:
		out.schema = append(out.schema, vector.Field{Name: n.MarkCol, Type: vector.Bool})
		out.cols = append(out.cols, vector.FromBools(marks))
	}
	return out, nil
}

func valuesEqualAt(a *vector.Vector, i int, b *vector.Vector, j int) bool {
	switch a.Typ.Physical() {
	case vector.Bool:
		return a.Bools()[i] == b.Bools()[j]
	case vector.UInt8:
		return a.UInt8s()[i] == b.UInt8s()[j]
	case vector.UInt16:
		return a.UInt16s()[i] == b.UInt16s()[j]
	case vector.Int32:
		return a.Int32s()[i] == b.Int32s()[j]
	case vector.Int64:
		return a.Int64s()[i] == b.Int64s()[j]
	case vector.Float64:
		return a.Float64s()[i] == b.Float64s()[j]
	default:
		return a.Strings()[i] == b.Strings()[j]
	}
}

func (e *Engine) cartProd(left, right *rel, residual expr.Expr) (*rel, error) {
	t0 := time.Now()
	total := left.n * right.n
	lIdx := make([]int32, 0, total)
	rIdx := make([]int32, 0, total)
	for i := 0; i < left.n; i++ {
		for j := 0; j < right.n; j++ {
			lIdx = append(lIdx, int32(i))
			rIdx = append(rIdx, int32(j))
		}
	}
	out := &rel{n: total}
	for ci, v := range left.cols {
		g := vector.New(v.Typ, total)
		g.Gather(v, lIdx)
		g.Typ = v.Typ
		out.schema = append(out.schema, left.schema[ci])
		out.cols = append(out.cols, g)
	}
	for ci, v := range right.cols {
		g := vector.New(v.Typ, total)
		g.Gather(v, rIdx)
		g.Typ = v.Typ
		out.schema = append(out.schema, right.schema[ci])
		out.cols = append(out.cols, g)
	}
	e.Trace.record(fmt.Sprintf("%s := cartprod()", e.Trace.name("s")),
		left.bytes()+right.bytes(), out.bytes(), total, time.Since(t0))
	if residual == nil {
		return out, nil
	}
	return e.filterRel(out, residual)
}

// filterRel applies a predicate to a materialized relation (select + joins).
func (e *Engine) filterRel(in *rel, pred expr.Expr) (*rel, error) {
	t0 := time.Now()
	bools, inBytes, err := e.evalBool(in, pred)
	if err != nil {
		return nil, err
	}
	tmp := make([]int32, in.n)
	k := primitives.SelectBoolCol(tmp, bools, nil)
	oids := tmp[:k]
	e.Trace.record(fmt.Sprintf("%s := select(%s)", e.Trace.name("s"), pred),
		inBytes, int64(4*k), k, time.Since(t0))
	out := &rel{schema: in.schema.Clone(), n: k}
	for i, v := range in.cols {
		t1 := time.Now()
		g := vector.New(v.Typ, k)
		g.Gather(v, oids)
		g.Typ = v.Typ
		out.cols = append(out.cols, g)
		e.Trace.record(fmt.Sprintf("%s := join(oids,%s)", e.Trace.name("s"), in.schema[i].Name),
			int64(4*k)+int64(v.Bytes()), int64(g.Bytes()), k, time.Since(t1))
	}
	return out, nil
}

// evalFetch1Join materializes a positional fetch: one join statement per
// fetched column. Like the vectorized operator it is an inner join: rows
// whose row id is negative or addresses a deleted target row drop. The
// target's base columns are all MIL reads, so an id past the base is an
// error.
func (e *Engine) evalFetch1Join(n *algebra.Fetch1Join) (*rel, error) {
	if err := e.DB.CheckJoinIndex(n.Table, n.RowID); err != nil {
		return nil, err
	}
	in, err := e.eval(n.Input)
	if err != nil {
		return nil, err
	}
	t, err := e.DB.Table(n.Table)
	if err != nil {
		return nil, err
	}
	ds, err := e.DB.Delta(n.Table)
	if err != nil {
		return nil, err
	}
	idv, _, err := e.evalExpr(in, n.RowID)
	if err != nil {
		return nil, err
	}
	ids := idv.Int32s()[:in.n]
	snap := ds.Snapshot()
	var live []int32
	for i, id := range ids {
		if int(id) >= t.N {
			return nil, fmt.Errorf("mil: fetch from %s: row id %d out of range [0, %d)", n.Table, id, t.N)
		}
		if id >= 0 && !snap.IsDeleted(id) {
			live = append(live, int32(i))
		}
	}
	if len(live) < in.n {
		in = in.take(live)
		g := make([]int32, len(live))
		for j, i := range live {
			g[j] = ids[i]
		}
		ids = g
	}
	out := &rel{schema: in.schema.Clone(), cols: append([]*vector.Vector{}, in.cols...), n: in.n}
	for i, cname := range n.Cols {
		col := t.Col(cname)
		if col == nil {
			return nil, fmt.Errorf("mil: table %s has no column %q", n.Table, cname)
		}
		name := cname
		if i < len(n.As) && n.As[i] != "" {
			name = n.As[i]
		}
		t0 := time.Now()
		g := vector.New(col.Typ, in.n)
		if err := core.FetchColumn(g, col, ids, nil, len(ids)); err != nil {
			return nil, err
		}
		e.Trace.record(fmt.Sprintf("%s := join(%s,%s.%s)", e.Trace.name("s"), n.RowID, n.Table, cname),
			int64(4*in.n), int64(g.Bytes()), in.n, time.Since(t0))
		out.schema = append(out.schema, vector.Field{Name: name, Type: col.Typ})
		out.cols = append(out.cols, g)
	}
	return out, nil
}
