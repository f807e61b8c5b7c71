// Package mil reimplements the MonetDB/MIL execution model the paper uses
// as its column-at-a-time baseline (Section 3.2): every algebra operator
// consumes fully materialized columns (BATs) and materializes its complete
// result before the next operator starts. Expressions become multiplexed
// map statements ([-](1.0,tax)), selections produce candidate oid lists
// followed by one positional join per projected column, and aggregates are
// grouped {sum}/{count} statements.
//
// Each executed statement is recorded with its input/output byte volume and
// elapsed time, reproducing the bandwidth trace of Table 3. The per-value
// work is done by the same loop-friendly primitives as the X100 engine —
// MonetDB's multiplex operators are equally loop-pipelined; what differs is
// that every intermediate result is a full column, which is exactly what
// makes MIL memory-bandwidth-bound on large inputs.
package mil

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/core"
	"x100/internal/dateutil"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// Statement is one executed MIL statement with its Table 3 accounting.
type Statement struct {
	Text     string
	InBytes  int64
	OutBytes int64
	Nanos    int64
	Rows     int
}

// MBs returns the statement bandwidth in MB/s (input + output volume).
func (s Statement) MBs() float64 {
	if s.Nanos == 0 {
		return 0
	}
	return float64(s.InBytes+s.OutBytes) / 1e6 / (float64(s.Nanos) / 1e9)
}

// Trace collects executed statements.
type Trace struct {
	Statements []Statement
	nextID     int
}

func (t *Trace) record(text string, in, out int64, rows int, d time.Duration) {
	if t == nil {
		return
	}
	t.Statements = append(t.Statements, Statement{Text: text, InBytes: in, OutBytes: out, Rows: rows, Nanos: d.Nanoseconds()})
}

func (t *Trace) name(prefix string) string {
	if t == nil {
		return prefix
	}
	t.nextID++
	return fmt.Sprintf("%s%d", prefix, t.nextID-1)
}

// Render formats the trace in the layout of the paper's Table 3.
func (t *Trace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %9s %9s %10s  %s\n", "ms", "BW MB/s", "MB out", "rows", "MIL statement")
	var totalNs, totalOut int64
	for _, s := range t.Statements {
		fmt.Fprintf(&b, "%10.2f %9.0f %9.2f %10d  %s\n",
			float64(s.Nanos)/1e6, s.MBs(), float64(s.OutBytes)/1e6, s.Rows, s.Text)
		totalNs += s.Nanos
		totalOut += s.OutBytes
	}
	fmt.Fprintf(&b, "%10.2f %9s %9.2f %10s  TOTAL\n", float64(totalNs)/1e6, "", float64(totalOut)/1e6, "")
	return b.String()
}

// rel is a fully materialized intermediate relation (a set of aligned BATs).
type rel struct {
	schema vector.Schema
	cols   []*vector.Vector
	n      int
}

// take returns the rows of r at the given positions.
func (r *rel) take(pos []int32) *rel {
	out := &rel{schema: r.schema, n: len(pos)}
	for _, v := range r.cols {
		g := vector.New(v.Typ, len(pos))
		g.Gather(v, pos)
		g.Typ = v.Typ
		out.cols = append(out.cols, g)
	}
	return out
}

func (r *rel) bytes() int64 {
	var total int64
	for _, v := range r.cols {
		total += int64(v.Bytes())
	}
	return total
}

func (r *rel) col(name string) *vector.Vector {
	if i := r.schema.ColIndex(name); i >= 0 {
		return r.cols[i]
	}
	return nil
}

// Engine executes algebra plans column-at-a-time against a database.
type Engine struct {
	DB    *core.Database
	Trace *Trace
}

// New creates a MIL engine without tracing.
func New(db *core.Database) *Engine { return &Engine{DB: db} }

// Run executes a plan and returns the materialized result.
func (e *Engine) Run(plan algebra.Node) (*core.Result, error) {
	if _, err := plan.Out(e.DB); err != nil {
		return nil, err
	}
	r, err := e.eval(plan)
	if err != nil {
		return nil, err
	}
	return relToResult(r), nil
}

func relToResult(r *rel) *core.Result {
	res := &core.Result{Schema: r.schema}
	b := &vector.Batch{Schema: r.schema, Vecs: r.cols, N: r.n}
	res.AppendBatch(b)
	return res
}

func (e *Engine) eval(plan algebra.Node) (*rel, error) {
	switch n := plan.(type) {
	case *algebra.Scan:
		return e.evalScan(n)
	case *algebra.Select:
		return e.evalSelect(n)
	case *algebra.Project:
		return e.evalProject(n)
	case *algebra.Aggr:
		return e.evalAggr(n)
	case *algebra.Join:
		return e.evalJoin(n)
	case *algebra.Fetch1Join:
		return e.evalFetch1Join(n)
	case *algebra.Order:
		return e.evalOrder(n.Input, n.Keys, 0)
	case *algebra.TopN:
		return e.evalOrder(n.Input, n.Keys, n.N)
	case *algebra.Array:
		return e.evalArray(n)
	default:
		return nil, fmt.Errorf("mil: cannot evaluate %T", plan)
	}
}

// evalScan materializes the requested columns as full BATs (decoding enum
// columns — MonetDB/MIL has no enum compression, Section 5 notes MIL
// storage is larger for exactly this reason).
func (e *Engine) evalScan(n *algebra.Scan) (*rel, error) {
	t, err := e.DB.Table(n.Table)
	if err != nil {
		return nil, err
	}
	ds, err := e.DB.Delta(n.Table)
	if err != nil {
		return nil, err
	}
	if ds.NumDeleted() > 0 || ds.NumDeltaRows() > 0 {
		return nil, fmt.Errorf("mil: table %s has pending deltas; reorganize before MIL scans", n.Table)
	}
	cols := n.Cols
	if len(cols) == 0 {
		for _, c := range t.Cols {
			cols = append(cols, c.Name)
		}
	}
	out := &rel{n: t.N}
	for _, name := range cols {
		v, f, err := e.scanColumn(t, name)
		if err != nil {
			return nil, err
		}
		out.schema = append(out.schema, f)
		out.cols = append(out.cols, v)
	}
	return out, nil
}

func (e *Engine) scanColumn(t *colstore.Table, name string) (*vector.Vector, vector.Field, error) {
	if name == algebra.RowIDCol {
		ids := make([]int32, t.N)
		for i := range ids {
			ids[i] = int32(i)
		}
		return vector.FromInt32s(ids), vector.Field{Name: name, Type: vector.Int32}, nil
	}
	if strings.HasSuffix(name, core.CodeSuffix) {
		c := t.Col(strings.TrimSuffix(name, core.CodeSuffix))
		if c == nil || !c.IsEnum() {
			return nil, vector.Field{}, fmt.Errorf("mil: %s.%s is not an enum column", t.Name, name)
		}
		if _, err := c.Pin(); err != nil {
			return nil, vector.Field{}, fmt.Errorf("mil: scan %s.%s: %w", t.Name, name, err)
		}
		v := c.VectorAt(0, t.N)
		return v, vector.Field{Name: name, Type: c.PhysType()}, nil
	}
	c := t.Col(name)
	if c == nil {
		return nil, vector.Field{}, fmt.Errorf("mil: table %s has no column %q", t.Name, name)
	}
	// Materialize with a returned error: the column may be disk-backed, and
	// a corrupt chunk must surface as an error, not a panic from VectorAt.
	if _, err := c.Pin(); err != nil {
		return nil, vector.Field{}, fmt.Errorf("mil: scan %s.%s: %w", t.Name, name, err)
	}
	if !c.IsEnum() {
		return c.VectorAt(0, t.N), vector.Field{Name: name, Type: c.Typ}, nil
	}
	// Decode the enum fully (a materializing positional join in MIL terms).
	t0 := time.Now()
	out := vector.New(c.Typ, t.N)
	codes := c.VectorAt(0, t.N)
	if c.Dict.Typ == vector.Float64 {
		if codes.Typ == vector.UInt8 {
			primitives.GatherColU8(out.Float64s(), c.Dict.F64s, codes.UInt8s(), nil)
		} else {
			primitives.GatherColU16(out.Float64s(), c.Dict.F64s, codes.UInt16s(), nil)
		}
	} else {
		if codes.Typ == vector.UInt8 {
			primitives.GatherColU8(out.Strings(), c.Dict.Values, codes.UInt8s(), nil)
		} else {
			primitives.GatherColU16(out.Strings(), c.Dict.Values, codes.UInt16s(), nil)
		}
	}
	e.Trace.record(fmt.Sprintf("%s := decode(%s.%s)", e.Trace.name("s"), t.Name, name),
		int64(codes.Bytes()), int64(out.Bytes()), t.N, time.Since(t0))
	return out, vector.Field{Name: name, Type: c.Typ}, nil
}

// evalSelect computes the predicate column-at-a-time into a candidate oid
// list, then materializes every column through a positional join — the
// select + six join()s pattern of Table 3.
func (e *Engine) evalSelect(n *algebra.Select) (*rel, error) {
	in, err := e.eval(n.Input)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	bools, inBytes, err := e.evalBool(in, n.Pred)
	if err != nil {
		return nil, err
	}
	tmp := make([]int32, in.n)
	k := primitives.SelectBoolCol(tmp, bools, nil)
	oids := tmp[:k]
	e.Trace.record(fmt.Sprintf("%s := select(%s)", e.Trace.name("s"), n.Pred),
		inBytes, int64(4*k), k, time.Since(t0))
	// Positional joins materialize the surviving values of each column.
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

// evalProject evaluates each output expression as a chain of multiplexed
// map statements over full columns.
func (e *Engine) evalProject(n *algebra.Project) (*rel, error) {
	in, err := e.eval(n.Input)
	if err != nil {
		return nil, err
	}
	out := &rel{n: in.n}
	for _, neE := range n.Exprs {
		v, _, err := e.evalExpr(in, neE.E)
		if err != nil {
			return nil, err
		}
		out.schema = append(out.schema, vector.Field{Name: neE.Alias, Type: v.Typ})
		out.cols = append(out.cols, v)
	}
	return out, nil
}

func (e *Engine) evalArray(n *algebra.Array) (*rel, error) {
	total := 1
	for _, d := range n.Dims {
		total *= d
	}
	if len(n.Dims) == 0 {
		total = 0
	}
	out := &rel{n: total}
	for di, d := range n.Dims {
		v := vector.New(vector.Int32, total)
		xs := v.Int32s()
		stride := 1
		for j := 0; j < di; j++ {
			stride *= n.Dims[j]
		}
		for i := 0; i < total; i++ {
			xs[i] = int32(i / stride % d)
		}
		out.schema = append(out.schema, vector.Field{Name: fmt.Sprintf("dim%d", di), Type: vector.Int32})
		out.cols = append(out.cols, v)
	}
	return out, nil
}

// dateYear computes year() over a full date column.
func dateYear(days []int32) []int32 {
	out := make([]int32, len(days))
	for i, d := range days {
		out[i] = dateutil.Year(d)
	}
	return out
}

func typeName(t vector.Type) string { return t.String() }

// Bind re-exports expr.Bind for the boxed fallback paths.
func bindScalar(eE expr.Expr, s vector.Schema) (expr.Scalar, vector.Type, error) {
	return expr.Bind(eE, s)
}

// sortPerm returns the permutation ordering rows by the given key columns.
func sortPerm(keys []*vector.Vector, desc []bool, n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := int(perm[a]), int(perm[b])
		for k, kv := range keys {
			c := compareAt(kv, i, j)
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return perm
}

func compareAt(v *vector.Vector, i, j int) int {
	switch v.Typ.Physical() {
	case vector.Bool:
		a, b := v.Bools()[i], v.Bools()[j]
		switch {
		case a == b:
			return 0
		case !a:
			return -1
		default:
			return 1
		}
	case vector.UInt8:
		return cmpOrd(v.UInt8s()[i], v.UInt8s()[j])
	case vector.UInt16:
		return cmpOrd(v.UInt16s()[i], v.UInt16s()[j])
	case vector.Int32:
		return cmpOrd(v.Int32s()[i], v.Int32s()[j])
	case vector.Int64:
		return cmpOrd(v.Int64s()[i], v.Int64s()[j])
	case vector.Float64:
		return cmpOrd(v.Float64s()[i], v.Float64s()[j])
	default:
		return cmpOrd(v.Strings()[i], v.Strings()[j])
	}
}

func cmpOrd[T primitives.Ordered](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (e *Engine) evalOrder(input algebra.Node, keys []algebra.OrdExpr, limit int) (*rel, error) {
	in, err := e.eval(input)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	keyVecs := make([]*vector.Vector, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		v, _, err := e.evalExpr(in, k.E)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = v
		desc[i] = k.Desc
	}
	perm := sortPerm(keyVecs, desc, in.n)
	if limit > 0 && len(perm) > limit {
		perm = perm[:limit]
	}
	out := &rel{schema: in.schema.Clone(), n: len(perm)}
	for _, v := range in.cols {
		g := vector.New(v.Typ, len(perm))
		g.Gather(v, perm)
		g.Typ = v.Typ
		out.cols = append(out.cols, g)
	}
	e.Trace.record(fmt.Sprintf("%s := sort(...)", e.Trace.name("s")),
		in.bytes(), out.bytes(), out.n, time.Since(t0))
	return out, nil
}
