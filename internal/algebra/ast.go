// Package algebra defines the X100 relational algebra of Section 4.1: the
// logical plan language all three engines in this repository execute. A
// plan is a tree of operators over Dataflows; Table is a materialized
// relation, Scan turns a Table into a Dataflow, and the remaining operators
// transform Dataflows (Figure 7 of the paper).
//
// Plans are built either with the Go constructors in this package or parsed
// from the paper's textual syntax (see Parse):
//
//	Aggr(
//	  Project(
//	    Select(Table(lineitem), <(shipdate, date('1998-09-03'))),
//	    [discountprice = *(-(flt('1.0'), discount), extendedprice)]),
//	  [returnflag],
//	  [sum_disc_price = sum(discountprice)])
package algebra

import (
	"fmt"

	"x100/internal/expr"
	"x100/internal/vector"
)

// Node is a plan operator.
type Node interface {
	// Out computes the output schema against a catalog resolver.
	Out(r Resolver) (vector.Schema, error)
	// Name returns the operator name for EXPLAIN.
	Name() string
	// Children returns input operators.
	Children() []Node
}

// Resolver supplies base-table schemas (implemented by the storage layer).
type Resolver interface {
	TableSchema(name string) (vector.Schema, error)
}

// CodeResolver is implemented by storage layers that expose the raw
// enumeration codes of enum columns as virtual "<column>#" scan targets.
type CodeResolver interface {
	// CodeColumnType returns the physical code type (UInt8/UInt16) of an
	// enum column.
	CodeColumnType(table, column string) (vector.Type, error)
}

// Scan reads a base table, producing only the named columns (vertically
// fragmented storage means unused columns are never touched). An empty
// Cols list means all columns. Scan can also expose the virtual #rowid
// column by listing "#rowid".
type Scan struct {
	Table string
	Cols  []string
}

// NewScan builds a Scan node.
func NewScan(table string, cols ...string) *Scan { return &Scan{Table: table, Cols: cols} }

// Out implements Node.
func (s *Scan) Out(r Resolver) (vector.Schema, error) {
	ts, err := r.TableSchema(s.Table)
	if err != nil {
		return nil, err
	}
	if len(s.Cols) == 0 {
		return ts.Clone(), nil
	}
	out := make(vector.Schema, 0, len(s.Cols))
	for _, c := range s.Cols {
		if c == RowIDCol {
			out = append(out, vector.Field{Name: RowIDCol, Type: vector.Int32})
			continue
		}
		f, ok := ts.Field(c)
		if !ok {
			if len(c) > 1 && c[len(c)-1] == '#' {
				if cr, isCR := r.(CodeResolver); isCR {
					t, err := cr.CodeColumnType(s.Table, c[:len(c)-1])
					if err != nil {
						return nil, err
					}
					out = append(out, vector.Field{Name: c, Type: t})
					continue
				}
			}
			return nil, fmt.Errorf("algebra: table %s has no column %q", s.Table, c)
		}
		out = append(out, f)
	}
	return out, nil
}

// Name implements Node.
func (s *Scan) Name() string { return "Scan(" + s.Table + ")" }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// RowIDCol is the name of the virtual dense row id column every table has
// (the void head column of MonetDB BATs).
const RowIDCol = "#rowid"

// Select filters a dataflow by a boolean predicate, producing a dataflow of
// the same shape (it only attaches a selection vector in the X100 engine).
type Select struct {
	Input Node
	Pred  expr.Expr
}

// NewSelect builds a Select node.
func NewSelect(in Node, pred expr.Expr) *Select { return &Select{Input: in, Pred: pred} }

// Out implements Node.
func (s *Select) Out(r Resolver) (vector.Schema, error) {
	in, err := s.Input.Out(r)
	if err != nil {
		return nil, err
	}
	t, err := s.Pred.Type(in)
	if err != nil {
		return nil, err
	}
	if t != vector.Bool {
		return nil, fmt.Errorf("algebra: select predicate has type %v, want bool", t)
	}
	return in, nil
}

// Name implements Node.
func (s *Select) Name() string { return "Select(" + s.Pred.String() + ")" }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// NamedExpr binds an expression to an output column name.
type NamedExpr struct {
	Alias string
	E     expr.Expr
}

// NE builds a named expression.
func NE(alias string, e expr.Expr) NamedExpr { return NamedExpr{Alias: alias, E: e} }

func (n NamedExpr) String() string {
	if c, ok := n.E.(*expr.Col); ok && c.Name == n.Alias {
		return n.Alias
	}
	return n.Alias + " = " + n.E.String()
}

// Project computes expressions; it defines the full output shape (column
// pass-through is an identity expression). Per the paper, Project performs
// no duplicate elimination.
type Project struct {
	Input Node
	Exprs []NamedExpr
}

// NewProject builds a Project node.
func NewProject(in Node, exprs ...NamedExpr) *Project { return &Project{Input: in, Exprs: exprs} }

// Out implements Node.
func (p *Project) Out(r Resolver) (vector.Schema, error) {
	in, err := p.Input.Out(r)
	if err != nil {
		return nil, err
	}
	out := make(vector.Schema, len(p.Exprs))
	for i, ne := range p.Exprs {
		t, err := ne.E.Type(in)
		if err != nil {
			return nil, err
		}
		out[i] = vector.Field{Name: ne.Alias, Type: t}
	}
	return out, nil
}

// Name implements Node.
func (p *Project) Name() string {
	s := "Project["
	for i, ne := range p.Exprs {
		if i > 0 {
			s += ", "
		}
		s += ne.String()
	}
	return s + "]"
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// AggFn enumerates aggregate functions.
type AggFn uint8

// Aggregate functions.
const (
	AggSum AggFn = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

func (f AggFn) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return "agg?"
	}
}

// AggExpr is one aggregate computation; Arg is nil for count(*).
type AggExpr struct {
	Alias string
	Fn    AggFn
	Arg   expr.Expr
}

// Sum, Count, Min, Max, Avg build aggregate expressions.
func Sum(alias string, arg expr.Expr) AggExpr { return AggExpr{Alias: alias, Fn: AggSum, Arg: arg} }
func Count(alias string) AggExpr              { return AggExpr{Alias: alias, Fn: AggCount} }
func Min(alias string, arg expr.Expr) AggExpr { return AggExpr{Alias: alias, Fn: AggMin, Arg: arg} }
func Max(alias string, arg expr.Expr) AggExpr { return AggExpr{Alias: alias, Fn: AggMax, Arg: arg} }
func Avg(alias string, arg expr.Expr) AggExpr { return AggExpr{Alias: alias, Fn: AggAvg, Arg: arg} }

func (a AggExpr) String() string {
	if a.Fn == AggCount && a.Arg == nil {
		return a.Alias + " = count()"
	}
	return fmt.Sprintf("%s = %s(%s)", a.Alias, a.Fn, a.Arg)
}

// resultType computes the output type of the aggregate.
func (a AggExpr) resultType(in vector.Schema) (vector.Type, error) {
	switch a.Fn {
	case AggCount:
		return vector.Int64, nil
	case AggAvg:
		return vector.Float64, nil
	default:
		t, err := a.Arg.Type(in)
		if err != nil {
			return vector.Unknown, err
		}
		if a.Fn == AggSum {
			switch t.Physical() {
			case vector.Float64:
				return vector.Float64, nil
			default:
				if !t.IsNumeric() {
					return vector.Unknown, fmt.Errorf("algebra: sum of %v", t)
				}
				return vector.Int64, nil
			}
		}
		return t, nil
	}
}

// AggMode selects the physical aggregation flavor (paper Section 4.1.2):
// hash aggregation in general, direct-array aggregation for small key
// domains, and ordered aggregation when groups arrive consecutively.
type AggMode uint8

// Aggregation modes. ModeAuto lets the engine pick.
const (
	ModeAuto AggMode = iota
	ModeHash
	ModeDirect
	ModeOrdered
)

func (m AggMode) String() string {
	switch m {
	case ModeHash:
		return "HASH"
	case ModeDirect:
		return "DIRECT"
	case ModeOrdered:
		return "ORDERED"
	default:
		return "AUTO"
	}
}

// Aggr groups by the given expressions and computes aggregates. With no
// group-by expressions it produces exactly one row (scalar aggregation);
// with no aggregates it performs duplicate elimination.
type Aggr struct {
	Input   Node
	GroupBy []NamedExpr
	Aggs    []AggExpr
	Mode    AggMode
}

// NewAggr builds an aggregation node.
func NewAggr(in Node, groupBy []NamedExpr, aggs []AggExpr) *Aggr {
	return &Aggr{Input: in, GroupBy: groupBy, Aggs: aggs}
}

// WithMode sets the physical aggregation mode.
func (a *Aggr) WithMode(m AggMode) *Aggr {
	a.Mode = m
	return a
}

// Out implements Node.
func (a *Aggr) Out(r Resolver) (vector.Schema, error) {
	in, err := a.Input.Out(r)
	if err != nil {
		return nil, err
	}
	out := make(vector.Schema, 0, len(a.GroupBy)+len(a.Aggs))
	for _, g := range a.GroupBy {
		t, err := g.E.Type(in)
		if err != nil {
			return nil, err
		}
		out = append(out, vector.Field{Name: g.Alias, Type: t})
	}
	for _, ag := range a.Aggs {
		t, err := ag.resultType(in)
		if err != nil {
			return nil, err
		}
		out = append(out, vector.Field{Name: ag.Alias, Type: t})
	}
	return out, nil
}

// Name implements Node.
func (a *Aggr) Name() string {
	s := fmt.Sprintf("Aggr(%s)[", a.Mode)
	for i, g := range a.GroupBy {
		if i > 0 {
			s += ", "
		}
		s += g.String()
	}
	s += "]["
	for i, ag := range a.Aggs {
		if i > 0 {
			s += ", "
		}
		s += ag.String()
	}
	return s + "]"
}

// Children implements Node.
func (a *Aggr) Children() []Node { return []Node{a.Input} }

// JoinKind enumerates join semantics.
type JoinKind uint8

// Join kinds. Semi and Anti implement decorrelated EXISTS / NOT EXISTS;
// LeftOuter keeps unmatched left rows with zero/empty right columns (used
// by Q13); Mark adds a boolean match column.
const (
	Inner JoinKind = iota
	Semi
	Anti
	LeftOuter
	Mark
)

func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "inner"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	case LeftOuter:
		return "leftouter"
	case Mark:
		return "mark"
	default:
		return "join?"
	}
}

// EquiCond equates a left column with a right column.
type EquiCond struct{ L, R string }

// Join combines a left dataflow with a right dataflow. With equi-conditions
// the engines build a hash table on the right side; without any it degrades
// to CartProd + Select (the paper's default nested-loop join). Residual is
// an extra predicate over the concatenated schema. MarkCol names the output
// column for Mark joins.
type Join struct {
	Left, Right Node
	Kind        JoinKind
	On          []EquiCond
	Residual    expr.Expr
	MarkCol     string
}

// NewJoin builds an inner equi-join.
func NewJoin(l, r Node, on ...EquiCond) *Join { return &Join{Left: l, Right: r, On: on} }

// NewJoinKind builds a join of the given kind.
func NewJoinKind(kind JoinKind, l, r Node, on ...EquiCond) *Join {
	return &Join{Left: l, Right: r, Kind: kind, On: on}
}

// WithResidual attaches a residual predicate evaluated on joined rows.
func (j *Join) WithResidual(e expr.Expr) *Join {
	j.Residual = e
	return j
}

// WithMark names the mark column of a Mark join.
func (j *Join) WithMark(col string) *Join {
	j.MarkCol = col
	return j
}

// Out implements Node.
func (j *Join) Out(r Resolver) (vector.Schema, error) {
	ls, err := j.Left.Out(r)
	if err != nil {
		return nil, err
	}
	rs, err := j.Right.Out(r)
	if err != nil {
		return nil, err
	}
	for _, c := range j.On {
		if ls.ColIndex(c.L) < 0 {
			return nil, fmt.Errorf("algebra: join: left has no column %q", c.L)
		}
		if rs.ColIndex(c.R) < 0 {
			return nil, fmt.Errorf("algebra: join: right has no column %q", c.R)
		}
	}
	switch j.Kind {
	case Semi, Anti:
		return ls.Clone(), nil
	case Mark:
		out := ls.Clone()
		return append(out, vector.Field{Name: j.MarkCol, Type: vector.Bool}), nil
	default:
		out := ls.Clone()
		for _, f := range rs {
			if out.ColIndex(f.Name) >= 0 {
				return nil, fmt.Errorf("algebra: join output has duplicate column %q", f.Name)
			}
			out = append(out, f)
		}
		if j.Residual != nil {
			t, err := j.Residual.Type(out)
			if err != nil {
				return nil, err
			}
			if t != vector.Bool {
				return nil, fmt.Errorf("algebra: join residual has type %v", t)
			}
		}
		return out, nil
	}
}

// Name implements Node.
func (j *Join) Name() string {
	s := fmt.Sprintf("Join(%s)[", j.Kind)
	for i, c := range j.On {
		if i > 0 {
			s += ", "
		}
		s += c.L + "=" + c.R
	}
	s += "]"
	if j.Residual != nil {
		s += "{" + j.Residual.String() + "}"
	}
	return s
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Fetch1Join positionally fetches columns of a referenced table by an int32
// row-id expression over the input (paper Section 4.1.2). Each fetched
// column may be renamed via the As list (empty alias keeps the name).
type Fetch1Join struct {
	Input Node
	Table string
	RowID expr.Expr
	Cols  []string
	As    []string
}

// NewFetch1Join builds a positional fetch join.
func NewFetch1Join(in Node, table string, rowID expr.Expr, cols ...string) *Fetch1Join {
	return &Fetch1Join{Input: in, Table: table, RowID: rowID, Cols: cols}
}

// Renamed sets output aliases for the fetched columns.
func (f *Fetch1Join) Renamed(as ...string) *Fetch1Join {
	f.As = as
	return f
}

// Out implements Node.
func (f *Fetch1Join) Out(r Resolver) (vector.Schema, error) {
	in, err := f.Input.Out(r)
	if err != nil {
		return nil, err
	}
	t, err := f.RowID.Type(in)
	if err != nil {
		return nil, err
	}
	if t.Physical() != vector.Int32 {
		return nil, fmt.Errorf("algebra: fetch1join rowid expression has type %v, want int32", t)
	}
	ts, err := r.TableSchema(f.Table)
	if err != nil {
		return nil, err
	}
	out := in.Clone()
	for i, c := range f.Cols {
		fl, ok := ts.Field(c)
		if !ok {
			return nil, fmt.Errorf("algebra: table %s has no column %q", f.Table, c)
		}
		name := c
		if i < len(f.As) && f.As[i] != "" {
			name = f.As[i]
		}
		if out.ColIndex(name) >= 0 {
			return nil, fmt.Errorf("algebra: fetch1join output has duplicate column %q", name)
		}
		out = append(out, vector.Field{Name: name, Type: fl.Type})
	}
	return out, nil
}

// Name implements Node.
func (f *Fetch1Join) Name() string {
	return fmt.Sprintf("Fetch1Join(%s by %s)%v", f.Table, f.RowID, f.Cols)
}

// Children implements Node.
func (f *Fetch1Join) Children() []Node { return []Node{f.Input} }

// OrdExpr is a sort key.
type OrdExpr struct {
	E    expr.Expr
	Desc bool
}

// Asc and Desc build sort keys.
func Asc(e expr.Expr) OrdExpr  { return OrdExpr{E: e} }
func Desc(e expr.Expr) OrdExpr { return OrdExpr{E: e, Desc: true} }

func (o OrdExpr) String() string {
	if o.Desc {
		return o.E.String() + " DESC"
	}
	return o.E.String() + " ASC"
}

// Order sorts the full dataflow (a materializing operator, defined on
// Tables in the paper's algebra).
type Order struct {
	Input Node
	Keys  []OrdExpr
}

// NewOrder builds a sort node.
func NewOrder(in Node, keys ...OrdExpr) *Order { return &Order{Input: in, Keys: keys} }

// Out implements Node.
func (o *Order) Out(r Resolver) (vector.Schema, error) {
	in, err := o.Input.Out(r)
	if err != nil {
		return nil, err
	}
	for _, k := range o.Keys {
		if _, err := k.E.Type(in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Name implements Node.
func (o *Order) Name() string {
	s := "Order["
	for i, k := range o.Keys {
		if i > 0 {
			s += ", "
		}
		s += k.String()
	}
	return s + "]"
}

// Children implements Node.
func (o *Order) Children() []Node { return []Node{o.Input} }

// TopN keeps the first N rows in key order.
type TopN struct {
	Input Node
	Keys  []OrdExpr
	N     int
}

// NewTopN builds a top-N node.
func NewTopN(in Node, n int, keys ...OrdExpr) *TopN { return &TopN{Input: in, Keys: keys, N: n} }

// Out implements Node.
func (t *TopN) Out(r Resolver) (vector.Schema, error) {
	in, err := t.Input.Out(r)
	if err != nil {
		return nil, err
	}
	for _, k := range t.Keys {
		if _, err := k.E.Type(in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Name implements Node.
func (t *TopN) Name() string { return fmt.Sprintf("TopN(%d)", t.N) }

// Children implements Node.
func (t *TopN) Children() []Node { return []Node{t.Input} }

// Array generates an N-dimensional array as an N-ary relation of all valid
// index coordinates in column-major dimension order (used by the RAM array
// front-end, Section 4.1.2). Dimension i yields a column named dimN.
type Array struct {
	Dims []int
}

// NewArray builds an array generator.
func NewArray(dims ...int) *Array { return &Array{Dims: dims} }

// Out implements Node.
func (a *Array) Out(Resolver) (vector.Schema, error) {
	out := make(vector.Schema, len(a.Dims))
	for i := range a.Dims {
		out[i] = vector.Field{Name: fmt.Sprintf("dim%d", i), Type: vector.Int32}
	}
	return out, nil
}

// Name implements Node.
func (a *Array) Name() string { return fmt.Sprintf("Array%v", a.Dims) }

// Children implements Node.
func (a *Array) Children() []Node { return nil }
