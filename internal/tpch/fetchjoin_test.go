package tpch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"x100/internal/algebra"
	"x100/internal/core"
	"x100/internal/dateutil"
	"x100/internal/expr"
	"x100/internal/mil"
	"x100/internal/volcano"
)

// The hash-join forms of the queries TestFetchJoinDeletedTargets checks:
// the plans as they were before their foreign-key joins became fetches.
// A Scan of the referenced table skips deleted rows, and an orphan row
// finds no key, so these answer what an inner join must.

func hashQ3() algebra.Node {
	cust := algebra.NewSelect(
		algebra.NewScan("customer", "c_custkey", "c_mktsegment"),
		expr.EQE(c("c_mktsegment"), str("BUILDING")))
	ord := algebra.NewSelect(
		algebra.NewScan("orders", "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"),
		expr.LTE(c("o_orderdate"), d("1995-03-15")))
	oj := algebra.NewJoin(ord, cust, algebra.EquiCond{L: "o_custkey", R: "c_custkey"})
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"),
		expr.GTE(c("l_shipdate"), d("1995-03-15")))
	lj := algebra.NewJoin(li, oj, algebra.EquiCond{L: "l_orderkey", R: "o_orderkey"})
	aggr := algebra.NewAggr(lj,
		[]algebra.NamedExpr{
			ne("l_orderkey", c("l_orderkey")),
			ne("o_orderdate", c("o_orderdate")),
			ne("o_shippriority", c("o_shippriority")),
		},
		[]algebra.AggExpr{algebra.Sum("revenue", revenue())})
	return algebra.NewTopN(aggr, 10, algebra.Desc(c("revenue")), algebra.Asc(c("o_orderdate")))
}

func hashQ7() algebra.Node {
	n1 := algebra.NewProject(algebra.NewScan("nation", "n_nationkey", "n_name"),
		ne("sn_key", c("n_nationkey")), ne("supp_nation", c("n_name")))
	n2 := algebra.NewProject(algebra.NewScan("nation", "n_nationkey", "n_name"),
		ne("cn_key", c("n_nationkey")), ne("cust_nation", c("n_name")))
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"),
		expr.AndE(
			expr.GEE(c("l_shipdate"), d("1995-01-01")),
			expr.LEE(c("l_shipdate"), d("1996-12-31")),
		))
	sj := algebra.NewJoin(li,
		algebra.NewScan("supplier", "s_suppkey", "s_nationkey"),
		algebra.EquiCond{L: "l_suppkey", R: "s_suppkey"})
	sn := algebra.NewJoin(sj, n1, algebra.EquiCond{L: "s_nationkey", R: "sn_key"})
	oj := algebra.NewJoin(sn,
		algebra.NewScan("orders", "o_orderkey", "o_custkey"),
		algebra.EquiCond{L: "l_orderkey", R: "o_orderkey"})
	cj := algebra.NewJoin(oj,
		algebra.NewScan("customer", "c_custkey", "c_nationkey"),
		algebra.EquiCond{L: "o_custkey", R: "c_custkey"})
	cn := algebra.NewJoin(cj, n2, algebra.EquiCond{L: "c_nationkey", R: "cn_key"})
	filt := algebra.NewSelect(cn, expr.OrE(
		expr.AndE(expr.EQE(c("supp_nation"), str("FRANCE")), expr.EQE(c("cust_nation"), str("GERMANY"))),
		expr.AndE(expr.EQE(c("supp_nation"), str("GERMANY")), expr.EQE(c("cust_nation"), str("FRANCE"))),
	))
	proj := algebra.NewProject(filt,
		ne("supp_nation", c("supp_nation")),
		ne("cust_nation", c("cust_nation")),
		ne("l_year", expr.YearE(c("l_shipdate"))),
		ne("volume", revenue()))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{
			ne("supp_nation", c("supp_nation")),
			ne("cust_nation", c("cust_nation")),
			ne("l_year", c("l_year")),
		},
		[]algebra.AggExpr{algebra.Sum("revenue", c("volume"))})
	return algebra.NewOrder(aggr,
		algebra.Asc(c("supp_nation")), algebra.Asc(c("cust_nation")), algebra.Asc(c("l_year")))
}

func hashQ12() algebra.Node {
	li := q12Lineitem("l_orderkey")
	oj := algebra.NewJoin(li,
		algebra.NewScan("orders", "o_orderkey", "o_orderpriority"),
		algebra.EquiCond{L: "l_orderkey", R: "o_orderkey"})
	urgent := expr.InE(c("o_orderpriority"), str("1-URGENT"), str("2-HIGH"))
	proj := algebra.NewProject(oj,
		ne("l_shipmode", c("l_shipmode")),
		ne("high", expr.CaseE(urgent, expr.Int(1), expr.Int(0))),
		ne("low", expr.CaseE(urgent, expr.Int(0), expr.Int(1))))
	aggr := algebra.NewAggr(proj,
		[]algebra.NamedExpr{ne("l_shipmode", c("l_shipmode"))},
		[]algebra.AggExpr{
			algebra.Sum("high_line_count", c("high")),
			algebra.Sum("low_line_count", c("low")),
		})
	return algebra.NewOrder(aggr, algebra.Asc(c("l_shipmode")))
}

// q12Lineitem is Q12's lineitem side: a scan of the filter columns and
// the order column ord under Q12's lineitem filter.
func q12Lineitem(ord string) algebra.Node {
	return algebra.NewSelect(
		algebra.NewScan("lineitem",
			ord, "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate"),
		expr.AndE(
			expr.InE(c("l_shipmode"), str("MAIL"), str("SHIP")),
			expr.LTE(c("l_commitdate"), c("l_receiptdate")),
			expr.LTE(c("l_shipdate"), c("l_commitdate")),
			expr.GEE(c("l_receiptdate"), d("1994-01-01")),
			expr.LTE(c("l_receiptdate"), d("1994-12-31")),
		))
}

func hashQ14() algebra.Node {
	li := algebra.NewSelect(
		algebra.NewScan("lineitem", "l_partkey", "l_shipdate", "l_extendedprice", "l_discount"),
		expr.AndE(
			expr.GEE(c("l_shipdate"), d("1995-09-01")),
			expr.LTE(c("l_shipdate"), d("1995-09-30")),
		))
	pj := algebra.NewJoin(li,
		algebra.NewScan("part", "p_partkey", "p_type"),
		algebra.EquiCond{L: "l_partkey", R: "p_partkey"})
	proj := algebra.NewProject(pj,
		ne("rev", revenue()),
		ne("promo_rev", expr.CaseE(expr.LikeE(c("p_type"), "PROMO%"), revenue(), f(0))))
	aggr := algebra.NewAggr(proj, nil, []algebra.AggExpr{
		algebra.Sum("sum_promo", c("promo_rev")),
		algebra.Sum("sum_rev", c("rev")),
	})
	return algebra.NewProject(aggr,
		ne("promo_revenue", expr.DivE(expr.MulE(f(100), c("sum_promo")), c("sum_rev"))))
}

// TestFetchJoinDeletedTargets checks the Fetch1Join inner-join rule: an
// input row whose row id is -1, or addresses a deleted target row, drops.
// It deletes orders, part and customer rows and inserts two lineitem rows
// with l_orderrow -1 (and an l_orderkey no order has) that pass the
// lineitem filters of Q3, Q7 and Q12, then runs those queries and Q14
// against their hash-join forms on memory and disk at parallelism 1 and 2:
// with the deletions pending, checkpointed, both, and after a cold
// re-attach; and on the MIL and Volcano engines.
func TestFetchJoinDeletedTargets(t *testing.T) {
	mem, err := Generate(Config{SF: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}

	schema, err := mem.TableSchema("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := lastRowTemplate(t, mem, "lineitem")
	// Q7 fetches orders only for French and German suppliers.
	suppRow, suppKey := frenchSupplier(t, mem)
	orphan := func(ship, commit, receipt, mode string) []any {
		row := slices.Clone(tmpl)
		set := func(col string, v any) { row[schema.ColIndex(col)] = v }
		set("l_orderkey", int32(math.MaxInt32))
		set("l_orderrow", int32(-1))
		set("l_suppkey", suppKey)
		set("l_supprow", suppRow)
		set("l_shipdate", dateutil.MustParse(ship))
		set("l_commitdate", dateutil.MustParse(commit))
		set("l_receiptdate", dateutil.MustParse(receipt))
		set("l_shipmode", mode)
		return row
	}
	for _, row := range [][]any{
		orphan("1994-03-01", "1994-03-10", "1994-03-20", "MAIL"), // Q12
		orphan("1995-06-01", "1995-06-10", "1995-06-20", "AIR"),  // Q3, Q7
	} {
		tw.each(t, func(db *core.Database) error {
			_, err := db.Insert("lineitem", row)
			return err
		})
	}

	queries := []struct {
		q    int
		hash algebra.Node
	}{{3, hashQ3()}, {7, hashQ7()}, {12, hashQ12()}, {14, hashQ14()}}
	// After an update of a referenced row, a fetch plan may also fail with
	// ErrStaleRangeIndex and no result; it must never answer differently.
	var staleOK bool
	check := func(label string, dbs map[string]*core.Database) {
		t.Helper()
		for _, qc := range queries {
			plan, err := Query(qc.q, 0.005)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(mem, qc.hash, core.DefaultOptions())
			if err != nil {
				t.Fatalf("%s Q%d hash join: %v", label, qc.q, err)
			}
			for name, db := range dbs {
				for _, p := range []int{1, 2} {
					opts := core.DefaultOptions()
					opts.Parallelism = p
					for form, pl := range map[string]algebra.Node{"fetch": plan, "hash": qc.hash} {
						got, err := core.Run(db, pl, opts)
						if staleOK && form == "fetch" && errors.Is(err, core.ErrStaleRangeIndex) && got == nil {
							continue
						}
						if err != nil {
							t.Fatalf("%s Q%d %s %s p=%d: %v", label, qc.q, form, name, p, err)
						}
						sameRowMultisets(t, fmt.Sprintf("%s Q%d %s %s p=%d", label, qc.q, form, name, p), want, got)
					}
				}
			}
		}
	}
	twins := map[string]*core.Database{"mem": mem, "disk": disk}
	check("orphans", twins)

	rng := rand.New(rand.NewSource(33))
	deleteSome := func(table string, n int) {
		tab, err := mem.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := mem.Delta(table)
		if err != nil {
			t.Fatal(err)
		}
		for deleted := 0; deleted < n; {
			id := int32(rng.Intn(tab.N))
			if ds.IsDeleted(id) {
				continue
			}
			tw.each(t, func(db *core.Database) error { return db.Delete(table, id) })
			deleted++
		}
	}
	targets := []string{"orders", "part", "customer"}
	for _, table := range targets {
		deleteSome(table, 40)
	}
	check("pending", twins)
	for _, table := range append(targets, "lineitem") {
		tw.each(t, func(db *core.Database) error {
			_, err := db.Checkpoint(table)
			return err
		})
	}
	check("checkpointed", twins)
	for _, table := range targets {
		deleteSome(table, 40)
	}
	check("checkpointed+pending", twins)
	// The baseline engines apply the same rule. They scan only tables
	// without deltas, and these fetch plans scan only lineitem, whose
	// orphans the checkpoint absorbed.
	for _, qc := range queries {
		plan, err := Query(qc.q, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(mem, qc.hash, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(algebra.Node) (*core.Result, error){
			"mil": mil.New(mem).Run, "volcano": volcano.New(mem).Run,
		} {
			got, err := run(plan)
			if err != nil {
				t.Fatalf("Q%d %s: %v", qc.q, name, err)
			}
			sameRowMultisets(t, fmt.Sprintf("Q%d %s", qc.q, name), want, got)
		}
	}
	// The orphans keep their l_orderrow -1 across a re-attach.
	restarted, _ := attachAll(t, dir, 8)
	check("re-attached", map[string]*core.Database{"restarted": restarted})

	// An update moves an orders row to a new row id while l_orderrow keeps
	// the old one: the hash joins still match the row by key, and the
	// fetches through the stale join index must fail rather than drop the
	// lineitems that reference it.
	for _, id := range q12Orders(t, mem, 3) {
		row := rowValues(t, mem, "orders", id)
		tw.each(t, func(db *core.Database) error {
			_, err := db.Update("orders", id, row)
			return err
		})
	}
	staleOK = true
	check("orders updated", twins)
	for _, db := range twins {
		plan, err := Query(12, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(db, plan, core.DefaultOptions()); !errors.Is(err, core.ErrStaleRangeIndex) {
			t.Fatalf("Q12 after an orders update: err = %v, want ErrStaleRangeIndex", err)
		}
	}
}

// q12Orders returns up to n live orders row ids that lineitem rows passing
// Q12's lineitem filter reference.
func q12Orders(t *testing.T, db *core.Database, n int) []int32 {
	t.Helper()
	res, err := core.Run(db, q12Lineitem("l_orderrow"), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := db.Delta("orders")
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for i := 0; i < res.NumRows() && len(ids) < n; i++ {
		id := res.Row(i)[0].(int32)
		if id >= 0 && !ds.IsDeleted(id) && !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		t.Fatalf("only %d orders rows under Q12's lineitems", len(ids))
	}
	return ids
}

// rowValues returns the values of a base row of a table, in schema order.
func rowValues(t *testing.T, db *core.Database, table string, id int32) []any {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(tab.Cols))
	for i, c := range tab.Cols {
		row[i] = c.DecodedValue(int(id))
	}
	return row
}

// frenchSupplier returns the row id and key of a supplier in FRANCE.
func frenchSupplier(t *testing.T, db *core.Database) (row, key int32) {
	t.Helper()
	nation, err := db.Table("nation")
	if err != nil {
		t.Fatal(err)
	}
	supplier, err := db.Table("supplier")
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nation.N; n++ {
		if nation.Col("n_name").DecodedValue(n) != "FRANCE" {
			continue
		}
		for s := 0; s < supplier.N; s++ {
			if supplier.Col("s_nationrow").DecodedValue(s) == int32(n) {
				return int32(s), supplier.Col("s_suppkey").DecodedValue(s).(int32)
			}
		}
	}
	t.Fatal("no supplier in FRANCE")
	return 0, 0
}
