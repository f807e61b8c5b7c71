package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/vector"
)

// opsDB builds a database exercising enums, dates and multiple tables.
func opsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()

	n := 1000
	keys := make([]int32, n)
	grp := make([]string, n)
	val := make([]float64, n)
	date := make([]int32, n)
	fk := make([]int32, n)
	for i := 0; i < n; i++ {
		keys[i] = int32(i)
		grp[i] = []string{"a", "b", "c"}[i%3]
		val[i] = float64(i) / 10
		date[i] = int32(i) // ascending -> clustered
		fk[i] = int32(i % 10)
	}
	fact := colstore.NewTable("fact")
	must(t, fact.AddColumn("k", vector.Int32, keys))
	must(t, fact.AddEnumColumn("grp", grp))
	must(t, fact.AddColumn("val", vector.Float64, val))
	must(t, fact.AddColumn("d", vector.Date, date))
	must(t, fact.AddColumn("fk", vector.Int32, fk))
	db.AddTable(fact)

	// Expose the grp enum dictionary as a mapping table for Fetch1Join.
	dict := colstore.NewTable("grp" + DictSuffix)
	must(t, dict.AddColumn("value", vector.String,
		append([]string(nil), fact.Col("grp").Dict.Values...)))
	db.AddTable(dict)

	dim := colstore.NewTable("dim")
	dk := make([]int32, 10)
	dn := make([]string, 10)
	for i := range dk {
		dk[i] = int32(i)
		dn[i] = fmt.Sprintf("dim-%d", i)
	}
	must(t, dim.AddColumn("dk", vector.Int32, dk))
	must(t, dim.AddColumn("dname", vector.String, dn))
	db.AddTable(dim)

	must(t, db.BuildSummaryIndex("fact", "d", 64))
	return db
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func runPlan(t *testing.T, db *Database, plan algebra.Node, opts ExecOptions) *Result {
	t.Helper()
	res, err := Run(db, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAggrModesAgree(t *testing.T) {
	db := opsDB(t)
	build := func(mode algebra.AggMode) algebra.Node {
		return algebra.NewAggr(
			algebra.NewScan("fact", "grp", "val"),
			[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
			[]algebra.AggExpr{
				algebra.Sum("s", expr.C("val")),
				algebra.Count("n"),
				algebra.Min("mn", expr.C("val")),
				algebra.Max("mx", expr.C("val")),
				algebra.Avg("av", expr.C("val")),
			}).WithMode(mode)
	}
	// The scan is in round-robin group order, so ordered mode would be
	// wrong here; compare hash against the sorted reference. Ordered mode
	// is tested separately on sorted input.
	ref := runPlan(t, db, algebra.NewOrder(build(algebra.ModeHash), algebra.Asc(expr.C("grp"))), DefaultOptions())
	if ref.NumRows() != 3 {
		t.Fatalf("groups: %d", ref.NumRows())
	}
	// Direct aggregation over the enum code column must agree after decode.
	direct := algebra.NewAggr(
		algebra.NewScan("fact", "grp#", "val"),
		[]algebra.NamedExpr{algebra.NE("g", expr.C("grp#"))},
		[]algebra.AggExpr{
			algebra.Sum("s", expr.C("val")),
			algebra.Count("n"),
			algebra.Min("mn", expr.C("val")),
			algebra.Max("mx", expr.C("val")),
			algebra.Avg("av", expr.C("val")),
		})
	withDecode := algebra.NewFetch1Join(direct, "grp#dict",
		expr.CastE(vector.Int32, expr.C("g")), "value").Renamed("grp")
	final := algebra.NewOrder(
		algebra.NewProject(withDecode,
			algebra.NE("grp", expr.C("grp")), algebra.NE("s", expr.C("s")),
			algebra.NE("n", expr.C("n")), algebra.NE("mn", expr.C("mn")),
			algebra.NE("mx", expr.C("mx")), algebra.NE("av", expr.C("av"))),
		algebra.Asc(expr.C("grp")))
	got := runPlan(t, db, final, DefaultOptions())
	if !reflect.DeepEqual(ref.Rows(), got.Rows()) {
		t.Fatalf("direct disagrees:\nhash:   %v\ndirect: %v", ref.Rows(), got.Rows())
	}
}

func TestOrderedAggrOnSortedInput(t *testing.T) {
	db := opsDB(t)
	// Sort by grp first, then ordered-aggregate.
	sorted := algebra.NewOrder(algebra.NewScan("fact", "grp", "val"), algebra.Asc(expr.C("grp")))
	ordered := algebra.NewAggr(sorted,
		[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
		[]algebra.AggExpr{algebra.Sum("s", expr.C("val")), algebra.Count("n")},
	).WithMode(algebra.ModeOrdered)
	hash := algebra.NewOrder(
		algebra.NewAggr(algebra.NewScan("fact", "grp", "val"),
			[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
			[]algebra.AggExpr{algebra.Sum("s", expr.C("val")), algebra.Count("n")},
		).WithMode(algebra.ModeHash),
		algebra.Asc(expr.C("grp")))
	a := runPlan(t, db, ordered, DefaultOptions())
	b := runPlan(t, db, hash, DefaultOptions())
	if !reflect.DeepEqual(a.Rows(), b.Rows()) {
		t.Fatalf("ordered: %v\nhash: %v", a.Rows(), b.Rows())
	}
}

// unwrapRoot strips the snapshot-release wrapper Build installs around a
// query's root operator, exposing the physical root for inspection.
func unwrapRoot(op Operator) Operator {
	if r, ok := op.(*releaseOp); ok {
		return r.Operator
	}
	return op
}

func TestOrderedAggrAutoDetected(t *testing.T) {
	db := opsDB(t)
	sorted := algebra.NewOrder(algebra.NewScan("fact", "grp", "val"), algebra.Asc(expr.C("grp")))
	aggr := algebra.NewAggr(sorted,
		[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
		[]algebra.AggExpr{algebra.Count("n")})
	op, err := Build(db, aggr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := unwrapRoot(op).(*aggrOp).mode; got != algebra.ModeOrdered {
		t.Fatalf("auto mode over sorted input: %v, want ORDERED", got)
	}
	res, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("groups: %d", res.NumRows())
	}
	// Unsorted input must NOT pick ordered mode (decode-first build: the
	// code-domain rewrite would otherwise group on the enum codes).
	plain := algebra.NewAggr(algebra.NewScan("fact", "grp", "val"),
		[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
		[]algebra.AggExpr{algebra.Count("n")})
	decodeFirst := DefaultOptions()
	decodeFirst.NoCodeDomain = true
	op2, err := Build(db, plain, decodeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if got := unwrapRoot(op2).(*aggrOp).mode; got != algebra.ModeHash {
		t.Fatalf("auto mode over unsorted input: %v, want HASH", got)
	}
	// With code-domain execution the same plan groups on the uint8 enum
	// codes and upgrades to direct aggregation (rehydrated via Fetch1Join).
	op3, err := Build(db, plain, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, isAggr := unwrapRoot(op3).(*aggrOp); isAggr {
		t.Fatalf("code-domain build did not rewrite the string group key")
	}
	res3, err := Drain(op3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.NumRows() != 3 {
		t.Fatalf("code-domain groups: %d", res3.NumRows())
	}
}

// TestHashAggrSealsSortedInput pins run sealing by the size of the group
// table, not by a timing: a hash aggregation whose first key arrives in
// non-decreasing order keeps only the current first-key run plus about a
// batch of new groups in its table (600k groups, four per first-key run).
// The same rows shuffled or descending, and a float64 first key, which
// never seals, index every group, as before.
func TestHashAggrSealsSortedInput(t *testing.T) {
	const n = 600_000
	k1, k2 := make([]int64, n), make([]int32, n)
	f1 := make([]float64, n)
	for i := range k1 {
		k1[i], k2[i], f1[i] = int64(i/4), int32(3-i%4), float64(i/4)
	}
	shuffled, shuffled2 := slices.Clone(k1), slices.Clone(k2) // a table keeps its slices
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		shuffled2[i], shuffled2[j] = shuffled2[j], shuffled2[i]
	})
	desc := slices.Clone(k1)
	slices.Reverse(desc)
	db := NewDatabase()
	for _, tc := range []struct {
		name string
		typ  vector.Type
		k1   any
		k2   []int32
	}{
		{"sorted", vector.Int64, k1, k2},
		{"shuffled", vector.Int64, shuffled, shuffled2},
		{"desc", vector.Int64, desc, k2},
		{"float", vector.Float64, f1, k2},
	} {
		tab := colstore.NewTable(tc.name)
		must(t, tab.AddColumn("k1", tc.typ, tc.k1))
		must(t, tab.AddColumn("k2", vector.Int32, tc.k2))
		db.AddTable(tab)
	}
	run := func(table string) *aggrOp {
		t.Helper()
		plan := algebra.NewAggr(algebra.NewScan(table, "k1", "k2"),
			[]algebra.NamedExpr{algebra.NE("k1", expr.C("k1")), algebra.NE("k2", expr.C("k2"))},
			[]algebra.AggExpr{algebra.Count("n")})
		op, err := Build(db, plan, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != n {
			t.Fatalf("%s: %d groups, want %d", table, res.NumRows(), n)
		}
		return unwrapRoot(op).(*aggrOp)
	}
	// The table never shrinks, so its final size is its largest.
	if op := run("sorted"); len(op.buckets) > 4096 || !op.sealing {
		t.Fatalf("sorted input: %d buckets (sealing %v), want <= 4096 while sealing", len(op.buckets), op.sealing)
	}
	for _, table := range []string{"shuffled", "desc", "float"} {
		if op := run(table); op.sealing || op.tableFrom != 0 || len(op.buckets)*7 <= n*10 {
			t.Fatalf("%s input: %d buckets from group %d (sealing %v), want every group indexed under 0.7 load",
				table, len(op.buckets), op.tableFrom, op.sealing)
		}
	}
}

// TestHashAggrUnsealAfterDrop breaks the key order right after the table
// dropped its sealed groups, in a batch with fewer rows than the one that
// made the drop, so the table still has room: the rows of a dropped group
// must find it again, not start a second group of the same key.
func TestHashAggrUnsealAfterDrop(t *testing.T) {
	const bs = 1024
	var k1, k2 []int64
	for i := 0; i < 2*bs; i++ { // two batches of new first keys
		k1, k2 = append(k1, int64(i)), append(k2, 0)
	}
	for i := 0; i < bs; i++ { // a batch of bs heads, one new group: drops
		k1, k2 = append(k1, 2*bs-1), append(k2, int64(1-i%2))
	}
	k1, k2 = append(k1, 0), append(k2, 0) // a dropped group, one head
	tab := colstore.NewTable("t")
	must(t, tab.AddColumn("k1", vector.Int64, k1))
	must(t, tab.AddColumn("k2", vector.Int64, k2))
	db := NewDatabase()
	db.AddTable(tab)
	plan := algebra.NewAggr(algebra.NewScan("t", "k1", "k2"),
		[]algebra.NamedExpr{algebra.NE("k1", expr.C("k1")), algebra.NE("k2", expr.C("k2"))},
		[]algebra.AggExpr{algebra.Count("n")})
	opts := DefaultOptions()
	opts.BatchSize = bs
	res := runPlan(t, db, plan, opts)
	if want := 2*bs + 1; res.NumRows() != want {
		t.Fatalf("%d groups, want %d", res.NumRows(), want)
	}
	if row := res.Row(0); row[2] != int64(2) {
		t.Fatalf("first group %v, want count 2", row)
	}
}

func TestScalarAggrOnEmptyInput(t *testing.T) {
	db := opsDB(t)
	plan := algebra.NewAggr(
		algebra.NewSelect(algebra.NewScan("fact", "val"), expr.GTE(expr.C("val"), expr.Float(1e9))),
		nil,
		[]algebra.AggExpr{algebra.Sum("s", expr.C("val")), algebra.Count("n")})
	res := runPlan(t, db, plan, DefaultOptions())
	if res.NumRows() != 1 {
		t.Fatalf("scalar aggregation must yield one row, got %d", res.NumRows())
	}
	row := res.Row(0)
	if row[0].(float64) != 0 || row[1].(int64) != 0 {
		t.Fatalf("empty aggregates: %v", row)
	}
}

func TestJoinKinds(t *testing.T) {
	db := opsDB(t)
	// dim rows 0..9; restrict right side to dk < 5 so half the fact rows miss.
	right := algebra.NewSelect(algebra.NewScan("dim", "dk", "dname"),
		expr.LTE(expr.C("dk"), expr.Int32Const(5)))
	scanFact := func() algebra.Node { return algebra.NewScan("fact", "k", "fk") }

	inner := runPlan(t, db, algebra.NewJoin(scanFact(), right, algebra.EquiCond{L: "fk", R: "dk"}), DefaultOptions())
	if inner.NumRows() != 500 {
		t.Fatalf("inner: %d", inner.NumRows())
	}
	semi := runPlan(t, db, algebra.NewJoinKind(algebra.Semi, scanFact(), right,
		algebra.EquiCond{L: "fk", R: "dk"}), DefaultOptions())
	if semi.NumRows() != 500 {
		t.Fatalf("semi: %d", semi.NumRows())
	}
	anti := runPlan(t, db, algebra.NewJoinKind(algebra.Anti, scanFact(), right,
		algebra.EquiCond{L: "fk", R: "dk"}), DefaultOptions())
	if anti.NumRows() != 500 {
		t.Fatalf("anti: %d", anti.NumRows())
	}
	outer := runPlan(t, db, algebra.NewJoinKind(algebra.LeftOuter, scanFact(), right,
		algebra.EquiCond{L: "fk", R: "dk"}), DefaultOptions())
	if outer.NumRows() != 1000 {
		t.Fatalf("outer: %d", outer.NumRows())
	}
	// Unmatched rows carry zero values on the right.
	sawZero := false
	for i := 0; i < outer.NumRows(); i++ {
		row := outer.Row(i)
		if row[1].(int32) >= 5 { // fk >= 5 had no match
			if row[3].(string) != "" {
				t.Fatalf("unmatched outer row has %v", row)
			}
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("expected unmatched rows")
	}
	mark := runPlan(t, db, algebra.NewJoinKind(algebra.Mark, scanFact(), right,
		algebra.EquiCond{L: "fk", R: "dk"}).WithMark("hit"), DefaultOptions())
	if mark.NumRows() != 1000 {
		t.Fatalf("mark: %d", mark.NumRows())
	}
	for i := 0; i < mark.NumRows(); i++ {
		row := mark.Row(i)
		if (row[1].(int32) < 5) != row[2].(bool) {
			t.Fatalf("mark row %v", row)
		}
	}
}

func TestJoinResidual(t *testing.T) {
	db := opsDB(t)
	// Inner join with residual k < 100.
	plan := algebra.NewJoin(
		algebra.NewScan("fact", "k", "fk"),
		algebra.NewScan("dim", "dk", "dname"),
		algebra.EquiCond{L: "fk", R: "dk"},
	).WithResidual(expr.LTE(expr.C("k"), expr.Int32Const(100)))
	res := runPlan(t, db, plan, DefaultOptions())
	if res.NumRows() != 100 {
		t.Fatalf("residual: %d", res.NumRows())
	}
}

func TestCartProdWithSelect(t *testing.T) {
	db := opsDB(t)
	// CartProd(dim, dim) with residual dk == dk2 -> 10 rows.
	left := algebra.NewScan("dim", "dk", "dname")
	rightProj := algebra.NewProject(algebra.NewScan("dim", "dk"),
		algebra.NE("dk2", expr.C("dk")))
	plan := algebra.NewJoin(left, rightProj).WithResidual(
		expr.EQE(expr.C("dk"), expr.C("dk2")))
	res := runPlan(t, db, plan, DefaultOptions())
	if res.NumRows() != 10 {
		t.Fatalf("cartprod+select: %d", res.NumRows())
	}
}

func TestFetch1JoinAndRowID(t *testing.T) {
	db := opsDB(t)
	plan := algebra.NewFetch1Join(
		algebra.NewScan("fact", "#rowid", "fk"),
		"dim", expr.C("fk"), "dname")
	res := runPlan(t, db, plan, DefaultOptions())
	if res.NumRows() != 1000 {
		t.Fatalf("rows: %d", res.NumRows())
	}
	row := res.Row(17)
	if row[0].(int32) != 17 {
		t.Fatalf("rowid: %v", row)
	}
	if row[2].(string) != fmt.Sprintf("dim-%d", row[1].(int32)) {
		t.Fatalf("fetched: %v", row)
	}
}

func TestTopNEqualsOrderedPrefix(t *testing.T) {
	db := opsDB(t)
	keys := []algebra.OrdExpr{algebra.Desc(expr.C("val")), algebra.Asc(expr.C("k"))}
	top := runPlan(t, db, algebra.NewTopN(algebra.NewScan("fact", "k", "val"), 7, keys...), DefaultOptions())
	full := runPlan(t, db, algebra.NewOrder(algebra.NewScan("fact", "k", "val"), keys...), DefaultOptions())
	if top.NumRows() != 7 {
		t.Fatalf("topn rows: %d", top.NumRows())
	}
	for i := 0; i < 7; i++ {
		if !reflect.DeepEqual(top.Row(i), full.Row(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestArrayOperator(t *testing.T) {
	db := NewDatabase()
	res := runPlan(t, db, algebra.NewArray(3, 2), DefaultOptions())
	if res.NumRows() != 6 {
		t.Fatalf("rows: %d", res.NumRows())
	}
	// Column-major: dim0 varies fastest.
	want := [][]int32{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	for i, w := range want {
		row := res.Row(i)
		if row[0].(int32) != w[0] || row[1].(int32) != w[1] {
			t.Fatalf("row %d: %v", i, row)
		}
	}
}

func TestSummaryIndexPruningCorrect(t *testing.T) {
	db := opsDB(t)
	plan := func() algebra.Node {
		return algebra.NewAggr(
			algebra.NewSelect(algebra.NewScan("fact", "d", "val"),
				expr.AndE(
					expr.GEE(expr.C("d"), expr.Int32Const(300)),
					expr.LEE(expr.C("d"), expr.Int32Const(350)),
				)),
			nil,
			[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("s", expr.C("val"))})
	}
	on := runPlan(t, db, plan(), DefaultOptions())
	offOpts := DefaultOptions()
	offOpts.NoSummaryIndex = true
	off := runPlan(t, db, plan(), offOpts)
	if !reflect.DeepEqual(on.Rows(), off.Rows()) {
		t.Fatalf("pruned %v vs unpruned %v", on.Rows(), off.Rows())
	}
	if on.Row(0)[0].(int64) != 51 {
		t.Fatalf("count: %v", on.Row(0))
	}
}

// TestVectorSizeInvariance is the Figure 10 correctness side: results are
// identical for any vector size.
func TestVectorSizeInvariance(t *testing.T) {
	db := opsDB(t)
	plan := algebra.NewOrder(
		algebra.NewAggr(
			algebra.NewSelect(algebra.NewScan("fact", "grp", "val", "d"),
				expr.LTE(expr.C("d"), expr.Int32Const(777))),
			[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
			[]algebra.AggExpr{algebra.Sum("s", expr.C("val")), algebra.Count("n")}),
		algebra.Asc(expr.C("grp")))
	ref := runPlan(t, db, plan, DefaultOptions())
	for _, size := range []int{1, 3, 17, 128, 4096, 1 << 20} {
		opts := DefaultOptions()
		opts.BatchSize = size
		got := runPlan(t, db, plan, opts)
		if !reflect.DeepEqual(ref.Rows(), got.Rows()) {
			t.Fatalf("vector size %d changes results", size)
		}
	}
}

func TestScanWithDeltas(t *testing.T) {
	db := opsDB(t)
	ds, err := db.Delta("fact")
	if err != nil {
		t.Fatal(err)
	}
	must(t, ds.Delete(0))
	must(t, ds.Delete(999))
	if _, err := ds.Insert([]any{int32(5000), "b", 123.5, int32(2000), int32(3)}); err != nil {
		t.Fatal(err)
	}
	plan := algebra.NewAggr(algebra.NewScan("fact", "k", "val"), nil,
		[]algebra.AggExpr{algebra.Count("n"), algebra.Max("mx", expr.C("val"))})
	res := runPlan(t, db, plan, DefaultOptions())
	if res.Row(0)[0].(int64) != 999 { // 1000 - 2 + 1
		t.Fatalf("count: %v", res.Row(0))
	}
	if res.Row(0)[1].(float64) != 123.5 {
		t.Fatalf("max must include delta row: %v", res.Row(0))
	}
	// Code columns work on delta rows too (encoded via the dictionary).
	plan2 := algebra.NewAggr(algebra.NewScan("fact", "grp#"),
		[]algebra.NamedExpr{algebra.NE("g", expr.C("grp#"))},
		[]algebra.AggExpr{algebra.Count("n")})
	res2 := runPlan(t, db, plan2, DefaultOptions())
	if res2.NumRows() != 3 {
		t.Fatalf("groups with deltas: %d", res2.NumRows())
	}
}

func TestBuildErrors(t *testing.T) {
	db := opsDB(t)
	bad := []algebra.Node{
		algebra.NewScan("nope"),
		algebra.NewScan("fact", "nope"),
		algebra.NewSelect(algebra.NewScan("fact", "val"), expr.C("val")), // non-bool
		algebra.NewJoin(algebra.NewScan("fact", "k"), algebra.NewScan("dim", "dk"),
			algebra.EquiCond{L: "missing", R: "dk"}),
		algebra.NewJoinKind(algebra.Semi, algebra.NewScan("fact", "k"), algebra.NewScan("dim", "dk")),
		algebra.NewFetch1Join(algebra.NewScan("dim", "dk"), "missing", expr.C("dk"), "x"),
	}
	for i, plan := range bad {
		if _, err := Run(db, plan, DefaultOptions()); err == nil {
			t.Errorf("plan %d should fail", i)
		}
	}
}

func TestResultFormat(t *testing.T) {
	db := opsDB(t)
	res := runPlan(t, db, algebra.NewTopN(algebra.NewScan("dim", "dk", "dname"), 3,
		algebra.Asc(expr.C("dk"))), DefaultOptions())
	out := res.Format(2)
	if !contains(out, "dk") || !contains(out, "dim-0") || !contains(out, "3 rows total") {
		t.Fatalf("format:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}
