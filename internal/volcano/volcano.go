// Package volcano implements the tuple-at-a-time baseline engine of the
// paper's Section 3.1: a classical Volcano iterator interpreter in the
// style of MySQL. Every operator's Next returns a single boxed row; every
// expression node costs one dynamic call per tuple (the Item_func_plus::val
// architecture of Table 2); and the scan marshals each tuple through a
// byte-record representation, paying the rec_get_nth_field-style
// record-navigation cost that dominates MySQL's profile.
//
// The engine executes the same algebra plans as the X100 and MIL engines,
// which makes the three directly comparable (Table 1) and differentially
// testable. With a non-nil Profile it produces a gprof-style per-function
// trace reproducing the shape of Table 2.
package volcano

import (
	"fmt"
	"sort"

	"x100/internal/algebra"
	"x100/internal/core"
	"x100/internal/vector"
)

// Row is one boxed tuple.
type Row = []any

// Operator is the tuple-at-a-time iterator interface.
type Operator interface {
	Open() error
	Next() (Row, bool, error)
	Close() error
	Schema() vector.Schema
}

// Engine executes algebra plans tuple-at-a-time.
type Engine struct {
	DB      *core.Database
	Profile *Profile // nil disables instrumentation
}

// New creates an engine without profiling.
func New(db *core.Database) *Engine { return &Engine{DB: db} }

// Run executes a plan to completion.
func (e *Engine) Run(plan algebra.Node) (*core.Result, error) {
	schema, err := plan.Out(e.DB)
	if err != nil {
		return nil, err
	}
	op, err := e.build(plan)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	res := &core.Result{Schema: schema}
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.AppendRow(row)
	}
	return res, nil
}

func (e *Engine) build(plan algebra.Node) (Operator, error) {
	switch n := plan.(type) {
	case *algebra.Scan:
		return newScan(e, n)
	case *algebra.Select:
		in, err := e.build(n.Input)
		if err != nil {
			return nil, err
		}
		it, err := e.buildItem(n.Pred, in.Schema())
		if err != nil {
			return nil, err
		}
		return &selectOp{input: in, pred: it}, nil
	case *algebra.Project:
		in, err := e.build(n.Input)
		if err != nil {
			return nil, err
		}
		return newProject(e, in, n)
	case *algebra.Aggr:
		in, err := e.build(n.Input)
		if err != nil {
			return nil, err
		}
		return newAggr(e, in, n)
	case *algebra.Join:
		l, err := e.build(n.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.build(n.Right)
		if err != nil {
			return nil, err
		}
		return newJoin(e, l, r, n)
	case *algebra.Fetch1Join:
		in, err := e.build(n.Input)
		if err != nil {
			return nil, err
		}
		return newFetch1(e, in, n)
	case *algebra.Order:
		in, err := e.build(n.Input)
		if err != nil {
			return nil, err
		}
		return newOrder(e, in, n.Keys, 0)
	case *algebra.TopN:
		in, err := e.build(n.Input)
		if err != nil {
			return nil, err
		}
		return newOrder(e, in, n.Keys, n.N)
	case *algebra.Array:
		return newArray(n), nil
	default:
		return nil, fmt.Errorf("volcano: cannot build %T", plan)
	}
}

// --- scan with record marshalling ---

type scanOp struct {
	eng    *Engine
	schema vector.Schema
	get    []func(rowID int) any
	n      int
	pos    int
	record []byte
}

func newScan(e *Engine, n *algebra.Scan) (*scanOp, error) {
	t, err := e.DB.Table(n.Table)
	if err != nil {
		return nil, err
	}
	ds, err := e.DB.Delta(n.Table)
	if err != nil {
		return nil, err
	}
	if ds.NumDeleted() > 0 || ds.NumDeltaRows() > 0 {
		return nil, fmt.Errorf("volcano: table %s has pending deltas; reorganize first", n.Table)
	}
	cols := n.Cols
	if len(cols) == 0 {
		for _, c := range t.Cols {
			cols = append(cols, c.Name)
		}
	}
	op := &scanOp{eng: e, n: t.N}
	for _, name := range cols {
		switch {
		case name == algebra.RowIDCol:
			op.schema = append(op.schema, vector.Field{Name: name, Type: vector.Int32})
			op.get = append(op.get, func(r int) any { return int32(r) })
		case len(name) > 1 && name[len(name)-1] == '#':
			c := t.Col(name[:len(name)-1])
			if c == nil || !c.IsEnum() {
				return nil, fmt.Errorf("volcano: %s.%s is not an enum column", n.Table, name)
			}
			if _, err := c.Pin(); err != nil {
				return nil, fmt.Errorf("volcano: scan %s.%s: %w", n.Table, name, err)
			}
			v := c.VectorAt(0, t.N)
			op.schema = append(op.schema, vector.Field{Name: name, Type: c.PhysType()})
			op.get = append(op.get, func(r int) any { return v.Value(r) })
		default:
			c := t.Col(name)
			if c == nil {
				return nil, fmt.Errorf("volcano: table %s has no column %q", n.Table, name)
			}
			// Pin with a returned error here so the per-tuple DecodedValue
			// closures can never hit a disk fault mid-scan.
			if _, err := c.Pin(); err != nil {
				return nil, fmt.Errorf("volcano: scan %s.%s: %w", n.Table, name, err)
			}
			cc := c
			op.schema = append(op.schema, vector.Field{Name: name, Type: c.Typ})
			op.get = append(op.get, func(r int) any { return cc.DecodedValue(r) })
		}
	}
	return op, nil
}

func (s *scanOp) Schema() vector.Schema { return s.schema }
func (s *scanOp) Open() error           { s.pos = 0; return nil }
func (s *scanOp) Close() error          { return nil }

func (s *scanOp) Next() (Row, bool, error) {
	if s.pos >= s.n {
		return nil, false, nil
	}
	r := s.pos
	s.pos++
	// Marshal the tuple into a byte record, then unmarshal each field —
	// MySQL's row_sel_store_mysql_rec / rec_get_nth_field round trip.
	p := s.eng.Profile
	done := p.enter("row_sel_store_mysql_rec")
	s.record = s.record[:0]
	for _, g := range s.get {
		s.record = appendField(s.record, g(r))
	}
	done()
	row := make(Row, len(s.get))
	off := 0
	for i := range row {
		d2 := p.enter("rec_get_nth_field")
		row[i], off = readField(s.record, off, s.schema[i].Type)
		d2()
	}
	return row, true, nil
}

// --- select / project ---

type selectOp struct {
	input Operator
	pred  *item
}

func (s *selectOp) Schema() vector.Schema { return s.input.Schema() }
func (s *selectOp) Open() error           { return s.input.Open() }
func (s *selectOp) Close() error          { return s.input.Close() }

func (s *selectOp) Next() (Row, bool, error) {
	for {
		row, ok, err := s.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if s.pred.eval(row).(bool) {
			return row, true, nil
		}
	}
}

type projectOp struct {
	input  Operator
	items  []*item
	schema vector.Schema
}

func newProject(e *Engine, in Operator, n *algebra.Project) (*projectOp, error) {
	p := &projectOp{input: in}
	for _, ne := range n.Exprs {
		it, err := e.buildItem(ne.E, in.Schema())
		if err != nil {
			return nil, err
		}
		t, err := ne.E.Type(in.Schema())
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, it)
		p.schema = append(p.schema, vector.Field{Name: ne.Alias, Type: t})
	}
	return p, nil
}

func (p *projectOp) Schema() vector.Schema { return p.schema }
func (p *projectOp) Open() error           { return p.input.Open() }
func (p *projectOp) Close() error          { return p.input.Close() }

func (p *projectOp) Next() (Row, bool, error) {
	row, ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(Row, len(p.items))
	for i, it := range p.items {
		out[i] = it.eval(row)
	}
	return out, true, nil
}

// --- order / topN / array ---

type orderOp struct {
	eng     *Engine
	input   Operator
	keys    []algebra.OrdExpr
	items   []*item
	limit   int
	rows    []Row
	keyVals [][]any
	pos     int
	done    bool
}

func newOrder(e *Engine, in Operator, keys []algebra.OrdExpr, limit int) (*orderOp, error) {
	op := &orderOp{eng: e, input: in, keys: keys, limit: limit}
	for _, k := range keys {
		it, err := e.buildItem(k.E, in.Schema())
		if err != nil {
			return nil, err
		}
		op.items = append(op.items, it)
	}
	return op, nil
}

func (o *orderOp) Schema() vector.Schema { return o.input.Schema() }
func (o *orderOp) Open() error           { o.done = false; o.pos = 0; o.rows = nil; return o.input.Open() }
func (o *orderOp) Close() error          { return o.input.Close() }

func (o *orderOp) Next() (Row, bool, error) {
	if !o.done {
		for {
			row, ok, err := o.input.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			keys := make([]any, len(o.items))
			for i, it := range o.items {
				keys[i] = it.eval(row)
			}
			o.rows = append(o.rows, row)
			o.keyVals = append(o.keyVals, keys)
		}
		idx := make([]int, len(o.rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := o.keyVals[idx[a]], o.keyVals[idx[b]]
			for i := range o.keys {
				c := compareAny(ka[i], kb[i])
				if c == 0 {
					continue
				}
				if o.keys[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		sorted := make([]Row, len(idx))
		for i, j := range idx {
			sorted[i] = o.rows[j]
		}
		o.rows = sorted
		if o.limit > 0 && len(o.rows) > o.limit {
			o.rows = o.rows[:o.limit]
		}
		o.done = true
	}
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	r := o.rows[o.pos]
	o.pos++
	return r, true, nil
}

func compareAny(a, b any) int {
	switch x := a.(type) {
	case int32:
		return cmp3(x, b.(int32))
	case int64:
		return cmp3(x, b.(int64))
	case float64:
		return cmp3(x, b.(float64))
	case string:
		return cmp3(x, b.(string))
	case uint8:
		return cmp3(x, b.(uint8))
	case uint16:
		return cmp3(x, b.(uint16))
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	default:
		panic(fmt.Sprintf("volcano: cannot compare %T", a))
	}
}

func cmp3[T int32 | int64 | float64 | string | uint8 | uint16](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

type arrayOp struct {
	dims   []int
	schema vector.Schema
	total  int
	pos    int
}

func newArray(n *algebra.Array) *arrayOp {
	total := 1
	op := &arrayOp{dims: n.Dims}
	for i, d := range n.Dims {
		total *= d
		op.schema = append(op.schema, vector.Field{Name: fmt.Sprintf("dim%d", i), Type: vector.Int32})
	}
	if len(n.Dims) == 0 {
		total = 0
	}
	op.total = total
	return op
}

func (a *arrayOp) Schema() vector.Schema { return a.schema }
func (a *arrayOp) Open() error           { a.pos = 0; return nil }
func (a *arrayOp) Close() error          { return nil }

func (a *arrayOp) Next() (Row, bool, error) {
	if a.pos >= a.total {
		return nil, false, nil
	}
	row := make(Row, len(a.dims))
	idx := a.pos
	for d := 0; d < len(a.dims); d++ {
		row[d] = int32(idx % a.dims[d])
		idx /= a.dims[d]
	}
	a.pos++
	return row, true, nil
}
