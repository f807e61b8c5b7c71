package tpch

import (
	"testing"

	"x100/internal/algebra"
	"x100/internal/core"
	"x100/internal/dateutil"
	"x100/internal/vector"
)

// TestQ1Selectivity checks the paper-critical distribution: the Query 1
// shipdate predicate must select ~98% of lineitem.
func TestQ1Selectivity(t *testing.T) {
	db := getDB(t)
	li, _ := db.Table("lineitem")
	hi := dateutil.MustParse("1998-09-02")
	ship := li.Col("l_shipdate").Data().([]int32)
	n := 0
	for _, d := range ship {
		if d <= hi {
			n++
		}
	}
	frac := float64(n) / float64(len(ship))
	if frac < 0.95 || frac > 0.995 {
		t.Fatalf("Q1 selectivity %.3f, want ~0.98", frac)
	}
}

// TestFlagDomains checks the 4 returnflag x linestatus combinations and
// small enum domains the direct aggregation relies on.
func TestFlagDomains(t *testing.T) {
	db := getDB(t)
	li, _ := db.Table("lineitem")
	rf := li.Col("l_returnflag")
	ls := li.Col("l_linestatus")
	if !rf.IsEnum() || !ls.IsEnum() {
		t.Fatal("flags must be enum columns")
	}
	if rf.Dict.Len() != 3 || ls.Dict.Len() != 2 {
		t.Fatalf("domains: rf=%d ls=%d", rf.Dict.Len(), ls.Dict.Len())
	}
	// A/R only before the current date, N after; O/F around current date.
	combos := map[[2]string]bool{}
	for i := 0; i < li.N; i++ {
		combos[[2]string{rf.DecodedValue(i).(string), ls.DecodedValue(i).(string)}] = true
	}
	for _, want := range [][2]string{{"A", "F"}, {"R", "F"}, {"N", "O"}, {"N", "F"}} {
		if !combos[want] {
			t.Errorf("missing combination %v", want)
		}
	}
	if combos[[2]string{"A", "O"}] || combos[[2]string{"R", "O"}] {
		t.Error("returned lineitems cannot still be open")
	}
}

// TestEnumNumericColumns checks the Table 5 setup: quantity, discount and
// tax are stored as single-byte enums of small float domains.
func TestEnumNumericColumns(t *testing.T) {
	db := getDB(t)
	li, _ := db.Table("lineitem")
	for col, maxDomain := range map[string]int{
		"l_quantity": 50, "l_discount": 11, "l_tax": 9,
	} {
		c := li.Col(col)
		if !c.IsEnum() || c.Dict.Typ != vector.Float64 {
			t.Errorf("%s must be a float enum", col)
			continue
		}
		if c.Dict.Len() > maxDomain {
			t.Errorf("%s domain %d > %d", col, c.Dict.Len(), maxDomain)
		}
		if c.PhysType() != vector.UInt8 {
			t.Errorf("%s should use single-byte codes", col)
		}
	}
}

// TestClustering checks orders is sorted on date and lineitem clustered
// with it (the Section 5 physical design): l_orderrow ascends from orders
// row 0 to its last row without a gap, since every order has a lineitem.
func TestClustering(t *testing.T) {
	db := getDB(t)
	ord, _ := db.Table("orders")
	dates := ord.Col("o_orderdate").Data().([]int32)
	for i := 1; i < len(dates); i++ {
		if dates[i] < dates[i-1] {
			t.Fatalf("orders not sorted at %d", i)
		}
	}
	li, _ := db.Table("lineitem")
	rows := li.Col("l_orderrow").Data().([]int32)
	for i := 1; i < len(rows); i++ {
		if d := rows[i] - rows[i-1]; d < 0 || d > 1 {
			t.Fatalf("lineitem not clustered at %d: l_orderrow %d after %d", i, rows[i], rows[i-1])
		}
	}
	if rows[0] != 0 || int(rows[len(rows)-1]) != ord.N-1 {
		t.Fatalf("l_orderrow spans [%d, %d], want [0, %d]", rows[0], rows[len(rows)-1], ord.N-1)
	}
}

// TestJoinIndexColumns checks that every row of each generated join-index
// column (joinIndices) holds the row id of the referenced row whose key
// equals the row's foreign key.
func TestJoinIndexColumns(t *testing.T) {
	db := getDB(t)
	if len(joinIndices) != 9 {
		t.Fatalf("%d join indices, want all nine foreign-key paths", len(joinIndices))
	}
	for _, ji := range joinIndices {
		from, err := db.Table(ji.from)
		if err != nil {
			t.Fatal(err)
		}
		to, err := db.Table(ji.to)
		if err != nil {
			t.Fatal(err)
		}
		fk := from.Col(ji.fromKey).Data().([]int32)
		rows := from.Col(ji.col).Data().([]int32)
		keys := to.Col(ji.toKey).Data().([]int32)
		for i, r := range rows {
			if r < 0 || int(r) >= to.N || keys[r] != fk[i] {
				t.Fatalf("%s.%s row %d: row id %d, want the %s row with %s = %d", ji.from, ji.col, i, r, ji.to, ji.toKey, fk[i])
			}
		}
	}
}

// TestDictTablesRegistered checks each enum column exposes its mapping
// table (Fetch1Join target).
func TestDictTablesRegistered(t *testing.T) {
	db := getDB(t)
	for _, name := range []string{"l_returnflag#dict", "l_linestatus#dict", "l_shipmode#dict", "l_quantity#dict"} {
		tab, err := db.Table(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tab.Col("value") == nil {
			t.Errorf("%s has no value column", name)
		}
	}
}

// TestDeterminism: same config -> identical database.
func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{SF: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{SF: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.Table("lineitem")
	lb, _ := b.Table("lineitem")
	if la.N != lb.N {
		t.Fatalf("row counts differ: %d vs %d", la.N, lb.N)
	}
	for i := 0; i < la.N; i += 11 {
		for _, col := range []string{"l_orderkey", "l_extendedprice", "l_shipdate", "l_comment"} {
			if la.Col(col).DecodedValue(i) != lb.Col(col).DecodedValue(i) {
				t.Fatalf("%s differs at %d", col, i)
			}
		}
	}
	c, err := Generate(Config{SF: 0.001, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lc, _ := c.Table("lineitem")
	same := true
	for i := 0; i < min(la.N, lc.N) && same; i++ {
		if la.Col("l_extendedprice").DecodedValue(i) != lc.Col("l_extendedprice").DecodedValue(i) {
			same = false
		}
	}
	if same && la.N == lc.N {
		t.Fatal("different seeds produced identical data")
	}
}

// TestPlainColumnsVariant: the enum-free layout produces the same logical
// data (used by the enum ablation).
func TestPlainColumnsVariant(t *testing.T) {
	enum, err := Generate(Config{SF: 0.001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Generate(Config{SF: 0.001, Seed: 3, PlainColumns: true})
	if err != nil {
		t.Fatal(err)
	}
	le, _ := enum.Table("lineitem")
	lp, _ := plain.Table("lineitem")
	if lp.Col("l_returnflag").IsEnum() {
		t.Fatal("plain layout must not use enums")
	}
	if le.N != lp.N {
		t.Fatal("row counts differ")
	}
	for i := 0; i < le.N; i += 13 {
		if le.Col("l_returnflag").DecodedValue(i) != lp.Col("l_returnflag").DecodedValue(i) ||
			le.Col("l_discount").DecodedValue(i) != lp.Col("l_discount").DecodedValue(i) {
			t.Fatalf("layouts disagree at %d", i)
		}
	}
	if le.Bytes() >= lp.Bytes() {
		t.Fatalf("enum layout should be smaller: %d vs %d", le.Bytes(), lp.Bytes())
	}
}

// TestQ6ExpectedValue cross-checks Q6 against an independent scalar
// computation over the raw columns.
func TestQ6ExpectedValue(t *testing.T) {
	db := getDB(t)
	li, _ := db.Table("lineitem")
	lo := dateutil.MustParse("1994-01-01")
	hi := dateutil.MustParse("1994-12-31")
	var want float64
	for i := 0; i < li.N; i++ {
		d := li.Col("l_shipdate").DecodedValue(i).(int32)
		disc := li.Col("l_discount").DecodedValue(i).(float64)
		qty := li.Col("l_quantity").DecodedValue(i).(float64)
		price := li.Col("l_extendedprice").DecodedValue(i).(float64)
		if d >= lo && d <= hi && disc >= 0.05 && disc <= 0.07 && qty < 24 {
			want += price * disc
		}
	}
	plan, err := Query(6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(db, plan, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Row(0)[0].(float64)
	if relDiff(got, want) > 1e-9 {
		t.Fatalf("Q6: got %v want %v", got, want)
	}
}

// TestParsedQ1EqualsBuilderQ1 runs a hand-parsed algebra text of Query 1
// against the Go-built plan.
func TestParsedQ1EqualsBuilderQ1(t *testing.T) {
	db := getDB(t)
	parsed := `
	Order(
	  Project(
	    Fetch1Join(
	      Fetch1Join(
	        Aggr(
	          Select(
	            Scan(lineitem, [l_returnflag#, l_linestatus#, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate]),
	            <=(l_shipdate, date('1998-09-02'))),
	          [rf = l_returnflag#, ls = l_linestatus#],
	          [sum_qty = sum(l_quantity), sum_base_price = sum(l_extendedprice),
	           sum_disc_price = sum(*(-(flt('1.0'), l_discount), l_extendedprice)),
	           sum_charge = sum(*(+(flt('1.0'), l_tax), *(-(flt('1.0'), l_discount), l_extendedprice))),
	           avg_qty = avg(l_quantity), avg_price = avg(l_extendedprice),
	           avg_disc = avg(l_discount), count_order = count()]),
	        l_returnflag#dict, int(rf), [value]),
	      l_linestatus#dict, int(ls), [value]),
	    [l_returnflag = value, l_linestatus = value.1, sum_qty, sum_base_price,
	     sum_disc_price, sum_charge, avg_qty, avg_price, avg_disc, count_order]),
	  [l_returnflag, l_linestatus])`
	_ = parsed
	// Column renaming through text is awkward (two "value" columns), so
	// parse the un-decoded core of the plan and compare aggregates only.
	core1 := `
	Aggr(
	  Select(
	    Scan(lineitem, [l_returnflag#, l_linestatus#, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate]),
	    <=(l_shipdate, date('1998-09-02'))),
	  [rf = l_returnflag#, ls = l_linestatus#],
	  [sum_qty = sum(l_quantity), count_order = count()])`
	n, err := algebra.Parse(core1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(db, n, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("groups: %d", res.NumRows())
	}
	want, err := HardcodedQ1(db)
	if err != nil {
		t.Fatal(err)
	}
	var totQty float64
	var totCnt int64
	for i := 0; i < res.NumRows(); i++ {
		totQty += res.Row(i)[2].(float64)
		totCnt += res.Row(i)[3].(int64)
	}
	var wantQty float64
	var wantCnt int64
	for _, g := range want {
		wantQty += g.SumQty
		wantCnt += g.CountOrder
	}
	if relDiff(totQty, wantQty) > 1e-9 || totCnt != wantCnt {
		t.Fatalf("parsed plan totals: %v/%d want %v/%d", totQty, totCnt, wantQty, wantCnt)
	}
}
