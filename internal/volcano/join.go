package volcano

import (
	"fmt"

	"x100/internal/algebra"
	"x100/internal/delta"
	"x100/internal/vector"
)

// joinOp is the tuple-at-a-time hash join (and nested-loop cross product
// when no equi-conditions are given). The right side is materialized into a
// boxed-row hash table; each left tuple probes it with an encoded key.
type joinOp struct {
	eng    *Engine
	left   Operator
	right  Operator
	node   *algebra.Join
	schema vector.Schema

	lKeyIdx  []int
	rKeyIdx  []int
	residual *item

	built    bool
	table    map[string][]Row
	rightAll []Row
	rWidth   int

	pending []Row
	keyBuf  []byte
}

func newJoin(e *Engine, l, r Operator, n *algebra.Join) (*joinOp, error) {
	op := &joinOp{eng: e, left: l, right: r, node: n}
	ls, rs := l.Schema(), r.Schema()
	for _, c := range n.On {
		li, ri := ls.ColIndex(c.L), rs.ColIndex(c.R)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("volcano: join key %s=%s not found", c.L, c.R)
		}
		op.lKeyIdx = append(op.lKeyIdx, li)
		op.rKeyIdx = append(op.rKeyIdx, ri)
	}
	switch n.Kind {
	case algebra.Semi, algebra.Anti:
		op.schema = ls.Clone()
	case algebra.Mark:
		op.schema = append(ls.Clone(), vector.Field{Name: n.MarkCol, Type: vector.Bool})
	default:
		op.schema = append(ls.Clone(), rs.Clone()...)
	}
	op.rWidth = len(rs)
	if n.Residual != nil {
		combined := append(ls.Clone(), rs.Clone()...)
		it, err := e.buildItem(n.Residual, combined)
		if err != nil {
			return nil, err
		}
		op.residual = it
	}
	return op, nil
}

func (j *joinOp) Schema() vector.Schema { return j.schema }

func (j *joinOp) Open() error {
	j.built = false
	j.pending = nil
	j.table = nil
	j.rightAll = nil
	if err := j.left.Open(); err != nil {
		return err
	}
	return j.right.Open()
}

func (j *joinOp) Close() error {
	if err := j.left.Close(); err != nil {
		j.right.Close()
		return err
	}
	return j.right.Close()
}

func (j *joinOp) build() error {
	j.table = make(map[string][]Row)
	for {
		row, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(j.node.On) == 0 {
			j.rightAll = append(j.rightAll, row)
			continue
		}
		key := j.encodeKey(row, j.rKeyIdx)
		j.table[key] = append(j.table[key], row)
	}
	j.built = true
	return nil
}

func (j *joinOp) encodeKey(row Row, idx []int) string {
	j.keyBuf = j.keyBuf[:0]
	for _, i := range idx {
		j.keyBuf = appendField(j.keyBuf, row[i])
	}
	return string(j.keyBuf)
}

func (j *joinOp) residualOK(l, r Row) bool {
	if j.residual == nil {
		return true
	}
	combined := make(Row, 0, len(l)+len(r))
	combined = append(combined, l...)
	combined = append(combined, r...)
	return j.residual.eval(combined).(bool)
}

func (j *joinOp) Next() (Row, bool, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	for {
		if len(j.pending) > 0 {
			row := j.pending[0]
			j.pending = j.pending[1:]
			return row, true, nil
		}
		l, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		var candidates []Row
		if len(j.node.On) == 0 {
			candidates = j.rightAll
		} else {
			candidates = j.table[j.encodeKey(l, j.lKeyIdx)]
		}
		matched := false
		for _, r := range candidates {
			if !j.residualOK(l, r) {
				continue
			}
			matched = true
			if j.node.Kind == algebra.Inner || j.node.Kind == algebra.LeftOuter {
				combined := make(Row, 0, len(l)+len(r))
				combined = append(combined, l...)
				combined = append(combined, r...)
				j.pending = append(j.pending, combined)
			} else {
				break
			}
		}
		switch j.node.Kind {
		case algebra.LeftOuter:
			if !matched {
				combined := make(Row, len(l)+j.rWidth)
				copy(combined, l)
				for i := 0; i < j.rWidth; i++ {
					combined[len(l)+i] = zeroOf(j.schema[len(l)+i].Type)
				}
				j.pending = append(j.pending, combined)
			}
		case algebra.Semi:
			if matched {
				return l, true, nil
			}
		case algebra.Anti:
			if !matched {
				return l, true, nil
			}
		case algebra.Mark:
			out := make(Row, len(l)+1)
			copy(out, l)
			out[len(l)] = matched
			return out, true, nil
		}
	}
}

// fetch1Op fetches referenced-table columns by row id, one tuple at a time.
// It is an inner join: a row whose row id is negative or addresses a
// deleted target row drops. Only the target's base rows are fetchable.
type fetch1Op struct {
	eng    *Engine
	input  Operator
	node   *algebra.Fetch1Join
	rowID  *item
	cols   []func(int) any
	snap   *delta.Snapshot
	n      int // the target's base rows
	schema vector.Schema
}

func newFetch1(e *Engine, in Operator, n *algebra.Fetch1Join) (*fetch1Op, error) {
	if err := e.DB.CheckJoinIndex(n.Table, n.RowID); err != nil {
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
	it, err := e.buildItem(n.RowID, in.Schema())
	if err != nil {
		return nil, err
	}
	op := &fetch1Op{eng: e, input: in, node: n, rowID: it, snap: ds.Snapshot(), n: t.N, schema: in.Schema().Clone()}
	for i, cname := range n.Cols {
		col := t.Col(cname)
		if col == nil {
			return nil, fmt.Errorf("volcano: table %s has no column %q", n.Table, cname)
		}
		if _, err := col.Pin(); err != nil {
			return nil, fmt.Errorf("volcano: fetch %s.%s: %w", n.Table, cname, err)
		}
		cc := col
		op.cols = append(op.cols, func(r int) any { return cc.DecodedValue(r) })
		name := cname
		if i < len(n.As) && n.As[i] != "" {
			name = n.As[i]
		}
		op.schema = append(op.schema, vector.Field{Name: name, Type: col.Typ})
	}
	return op, nil
}

func (f *fetch1Op) Schema() vector.Schema { return f.schema }
func (f *fetch1Op) Open() error           { return f.input.Open() }
func (f *fetch1Op) Close() error          { return f.input.Close() }

func (f *fetch1Op) Next() (Row, bool, error) {
	var row Row
	var id int
	for {
		r, ok, err := f.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		id32 := f.rowID.eval(r).(int32)
		if int(id32) >= f.n {
			return nil, false, fmt.Errorf("volcano: fetch from %s: row id %d out of range [0, %d)", f.node.Table, id32, f.n)
		}
		if id32 >= 0 && !f.snap.IsDeleted(id32) {
			row, id = r, int(id32)
			break
		}
	}
	out := make(Row, 0, len(f.schema))
	out = append(out, row...)
	p := f.eng.Profile
	for _, g := range f.cols {
		d := p.enter("rec_get_nth_field")
		out = append(out, g(id))
		d()
	}
	return out, true, nil
}
