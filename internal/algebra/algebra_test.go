package algebra

import (
	"strings"
	"testing"

	"x100/internal/expr"
	"x100/internal/vector"
)

// fakeResolver supplies table schemas for plan validation tests.
type fakeResolver map[string]vector.Schema

func (f fakeResolver) TableSchema(name string) (vector.Schema, error) {
	if s, ok := f[name]; ok {
		return s, nil
	}
	return nil, errNoTable(name)
}

type errNoTable string

func (e errNoTable) Error() string { return "no table " + string(e) }

var testRes = fakeResolver{
	"lineitem": {
		{Name: "l_shipdate", Type: vector.Date},
		{Name: "l_discount", Type: vector.Float64},
		{Name: "l_extendedprice", Type: vector.Float64},
		{Name: "l_returnflag", Type: vector.String},
		{Name: "l_orderkey", Type: vector.Int32},
	},
	"orders": {
		{Name: "o_orderkey", Type: vector.Int32},
		{Name: "o_orderdate", Type: vector.Date},
	},
}

func TestParsePaperQuery(t *testing.T) {
	// The plan text from the paper's Section 4.1.1 example (with Table ≡
	// Scan and, as in the full Figure 9 plan, the pass-through column
	// listed explicitly: Project defines the complete output shape).
	n, err := Parse(`
	Aggr(
	  Project(
	    Select(
	      Table(lineitem),
	      <(l_shipdate, date('1998-09-03'))),
	    [l_returnflag, discountprice = *(-(flt('1.0'), l_discount), l_extendedprice)]),
	  [l_returnflag],
	  [sum_disc_price = sum(discountprice)])`)
	if err != nil {
		t.Fatal(err)
	}
	aggr, ok := n.(*Aggr)
	if !ok {
		t.Fatalf("root is %T", n)
	}
	if len(aggr.GroupBy) != 1 || aggr.GroupBy[0].Alias != "l_returnflag" {
		t.Fatalf("groupby: %v", aggr.GroupBy)
	}
	if len(aggr.Aggs) != 1 || aggr.Aggs[0].Fn != AggSum || aggr.Aggs[0].Alias != "sum_disc_price" {
		t.Fatalf("aggs: %v", aggr.Aggs)
	}
	proj, ok := aggr.Input.(*Project)
	if !ok {
		t.Fatalf("input is %T", aggr.Input)
	}
	sel, ok := proj.Input.(*Select)
	if !ok {
		t.Fatalf("project input is %T", proj.Input)
	}
	if _, ok := sel.Input.(*Scan); !ok {
		t.Fatalf("select input is %T", sel.Input)
	}
	// The plan type-checks against the catalog.
	out, err := aggr.Out(testRes)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].Type != vector.Float64 {
		t.Fatalf("schema: %v", out)
	}
}

func TestParseOperators(t *testing.T) {
	good := []string{
		`Scan(lineitem, [l_orderkey, l_discount])`,
		`Order(Scan(orders), [o_orderdate DESC, o_orderkey])`,
		`TopN(Scan(orders), [o_orderdate], 10)`,
		`Fetch1Join(Scan(lineitem), orders, l_orderkey, [o_orderdate])`,
		`Array([3, 4, 5])`,
		`HashAggr(Scan(lineitem), [l_returnflag], [n = count()])`,
		`DirectAggr(Scan(lineitem), [l_returnflag], [n = count()])`,
		`OrdAggr(Scan(lineitem), [l_returnflag], [n = count()])`,
		`Select(lineitem, and(>=(l_discount, 0.05), <=(l_discount, 0.07)))`,
		`Select(lineitem, in(l_returnflag, 'A', 'R'))`,
		`Select(lineitem, notlike(l_returnflag, 'x%'))`,
		`Project(lineitem, [y = year(l_shipdate), c = case(<(l_discount, 0.05), 1, 0)])`,
		`Project(lineitem, [s = substr(l_returnflag, 1, 1)])`,
	}
	for _, text := range good {
		if _, err := Parse(text); err != nil {
			t.Errorf("%s: %v", text, err)
		}
	}
}

func TestParseModes(t *testing.T) {
	for text, want := range map[string]AggMode{
		`Aggr(Scan(t), [], [n = count()])`:       ModeAuto,
		`HashAggr(Scan(t), [], [n = count()])`:   ModeHash,
		`DirectAggr(Scan(t), [], [n = count()])`: ModeDirect,
		`OrdAggr(Scan(t), [], [n = count()])`:    ModeOrdered,
	} {
		n, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if n.(*Aggr).Mode != want {
			t.Errorf("%s: mode %v", text, n.(*Aggr).Mode)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`Bogus(x)`,
		`Select(lineitem)`,
		`Select(lineitem, <(a, b)) trailing`,
		`Aggr(Scan(t), [x], [y = frobnicate(z)])`,
		`TopN(Scan(t), [x], notanumber)`,
		`Select(t, like(a, b))`,
		`Select(t, date('13-01-2020x'))`,
		`Project(t, [x = substr(s, a, b)])`,
		`Scan(t, [1, 2])`,
		// Fetch1Join is the one positional join; FetchNJoin is no operator.
		`FetchNJoin(Scan(orders), lineitem, o_orderkey, [l_discount])`,
		`Aggr(FetchNJoin(Scan(orders), lineitem, o_orderkey, [l_discount]), [], [n = count()])`,
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: expected parse error", text)
		}
	}
}

func TestParseExprLiterals(t *testing.T) {
	e, err := ParseExpr(`*(-(flt('1.0'), l_discount), l_extendedprice)`)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "*(-(float64(1), l_discount), l_extendedprice)" {
		t.Fatalf("got %q", e.String())
	}
	e2, err := ParseExpr(`-5`)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := e2.(*expr.Const); !ok || c.Val.(int64) != -5 {
		t.Fatalf("negative literal: %v", e2)
	}
	e3, err := ParseExpr(`3.25`)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := e3.(*expr.Const); !ok || c.Val.(float64) != 3.25 {
		t.Fatalf("float literal: %v", e3)
	}
}

func TestSchemaValidation(t *testing.T) {
	// Unknown column in select.
	n, _ := Parse(`Select(lineitem, <(no_such_col, 5))`)
	if _, err := n.Out(testRes); err == nil {
		t.Error("unknown column must fail validation")
	}
	// Join duplicate output column.
	j := NewJoin(NewScan("orders"), NewScan("orders"), EquiCond{L: "o_orderkey", R: "o_orderkey"})
	if _, err := j.Out(testRes); err == nil {
		t.Error("duplicate join columns must fail")
	}
	// Semi join output is the left schema.
	sj := NewJoinKind(Semi, NewScan("lineitem"), NewScan("orders"), EquiCond{L: "l_orderkey", R: "o_orderkey"})
	out, err := sj.Out(testRes)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(testRes["lineitem"]) {
		t.Errorf("semi schema: %v", out)
	}
	// Mark join appends the mark column.
	mj := NewJoinKind(Mark, NewScan("lineitem"), NewScan("orders"),
		EquiCond{L: "l_orderkey", R: "o_orderkey"}).WithMark("m")
	out, err = mj.Out(testRes)
	if err != nil {
		t.Fatal(err)
	}
	if out[len(out)-1].Name != "m" || out[len(out)-1].Type != vector.Bool {
		t.Errorf("mark schema: %v", out)
	}
}

func TestExplainAndTables(t *testing.T) {
	n, err := Parse(`TopN(Select(Scan(lineitem), <(l_discount, 0.05)), [l_orderkey], 5)`)
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(n)
	for _, want := range []string{"TopN(5)", "Select", "Scan(lineitem)"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	// Indentation reflects depth.
	if !strings.Contains(text, "    Scan(lineitem)") {
		t.Errorf("scan not indented:\n%s", text)
	}
	tabs := Tables(NewFetch1Join(NewScan("lineitem"), "orders", expr.C("l_orderkey"), "o_orderdate"))
	if len(tabs) != 2 {
		t.Errorf("tables: %v", tabs)
	}
}

func TestRowIDColumn(t *testing.T) {
	s := NewScan("orders", RowIDCol, "o_orderkey")
	out, err := s.Out(testRes)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Name != RowIDCol || out[0].Type != vector.Int32 {
		t.Fatalf("rowid schema: %v", out)
	}
}
