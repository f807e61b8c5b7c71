package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/vector"
)

// parallelDB builds a fact table large enough for several morsels plus a
// small dimension table.
func parallelDB(t *testing.T, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	fact := colstore.NewTable("fact")
	keys := make([]int64, rows)
	vals := make([]float64, rows)
	grp := make([]int64, rows)
	cat := make([]string, rows)
	cats := []string{"a", "b", "c", "d", "e"}
	r := uint64(7)
	for i := range keys {
		r ^= r >> 12
		r ^= r << 25
		r ^= r >> 27
		keys[i] = int64(i % 977)
		vals[i] = float64(r%100000) / 100
		grp[i] = int64(r % 53)
		cat[i] = cats[r%uint64(len(cats))]
	}
	must0(t, fact.AddColumn("k", vector.Int64, keys))
	must0(t, fact.AddColumn("v", vector.Float64, vals))
	must0(t, fact.AddColumn("g", vector.Int64, grp))
	must0(t, fact.AddEnumColumn("cat", cat))
	db.AddTable(fact)

	dim := colstore.NewTable("dim")
	dk := make([]int64, 977)
	dn := make([]string, 977)
	for i := range dk {
		dk[i] = int64(i)
		dn[i] = fmt.Sprintf("name%03d", i%10)
	}
	must0(t, dim.AddColumn("dk", vector.Int64, dk))
	must0(t, dim.AddColumn("dn", vector.String, dn))
	db.AddTable(dim)
	return db
}

func must0(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// exactKeys renders every row with full precision (bit-exact floats).
func exactKeys(res *Result) []string {
	keys := make([]string, res.NumRows())
	for i := range keys {
		s := ""
		for _, v := range res.Row(i) {
			s += fmt.Sprintf("|%v", v)
		}
		keys[i] = s
	}
	return keys
}

// nonFloatKey renders a row's non-float columns: group keys, counts and
// integer/string min/max are bit-deterministic at any parallelism, so they
// identify the row for the tolerance-based float comparison.
func nonFloatKey(row []any) string {
	s := ""
	for _, v := range row {
		if _, ok := v.(float64); ok {
			continue
		}
		s += fmt.Sprintf("|%v", v)
	}
	return s
}

// assertSameResult checks got against want as row multisets. Rows that are
// bit-identical (including floats) match exactly; otherwise rows pair up by
// their non-float columns — which must then be unique per row — and float
// columns compare within relative 1e-9 (parallel aggregation sums floats
// in a different order than serial execution).
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("row count %d, want %d", got.NumRows(), want.NumRows())
	}
	ew, eg := exactKeys(want), exactKeys(got)
	sort.Strings(ew)
	sort.Strings(eg)
	exact := true
	for i := range ew {
		if ew[i] != eg[i] {
			exact = false
			break
		}
	}
	if exact {
		return
	}
	index := func(res *Result) map[string][]any {
		m := make(map[string][]any, res.NumRows())
		for i := 0; i < res.NumRows(); i++ {
			row := res.Row(i)
			k := nonFloatKey(row)
			if _, dup := m[k]; dup {
				t.Fatalf("non-float key %q not unique; cannot pair rows for float tolerance", k)
			}
			m[k] = row
		}
		return m
	}
	mw, mg := index(want), index(got)
	for k, wrow := range mw {
		grow, ok := mg[k]
		if !ok {
			t.Fatalf("row %q missing from parallel result", k)
		}
		for c := range wrow {
			wf, wok := wrow[c].(float64)
			gf, gok := grow[c].(float64)
			if wok && gok {
				if diff := math.Abs(wf - gf); diff > 1e-9*math.Max(1, math.Abs(wf)) {
					t.Fatalf("row %q col %d: %v != %v", k, c, gf, wf)
				}
				continue
			}
			if wrow[c] != grow[c] {
				t.Fatalf("row %q col %d: %v != %v", k, c, grow[c], wrow[c])
			}
		}
	}
}

// runParallelLevels executes plan at Parallelism 1, 2 and 8 and asserts
// identical results.
func runParallelLevels(t *testing.T, db *Database, plan algebra.Node) {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = 1
	want, err := Run(db, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		t.Run(fmt.Sprintf("parallelism%d", p), func(t *testing.T) {
			o := DefaultOptions()
			o.Parallelism = p
			got, err := Run(db, plan, o)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, got)
		})
	}
}

func TestParallelScanSelectProject(t *testing.T) {
	db := parallelDB(t, 100_000)
	plan := algebra.NewProject(
		algebra.NewSelect(
			algebra.NewScan("fact", "k", "v", "g"),
			expr.LTE(expr.C("v"), expr.Float(300)),
		),
		algebra.NE("k", expr.C("k")),
		algebra.NE("vv", expr.MulE(expr.C("v"), expr.Float(2))),
	)
	runParallelLevels(t, db, plan)
}

func TestParallelHashAggr(t *testing.T) {
	db := parallelDB(t, 100_000)
	plan := algebra.NewAggr(
		algebra.NewSelect(
			algebra.NewScan("fact", "k", "v", "g"),
			expr.GTE(expr.C("v"), expr.Float(100)),
		),
		[]algebra.NamedExpr{algebra.NE("g", expr.C("g"))},
		[]algebra.AggExpr{
			algebra.Sum("s", expr.C("v")),
			algebra.Count("n"),
			algebra.Min("lo", expr.C("v")),
			algebra.Max("hi", expr.C("v")),
			algebra.Avg("av", expr.C("v")),
			algebra.Min("klo", expr.C("k")),
			algebra.Max("khi", expr.C("k")),
		},
	)
	runParallelLevels(t, db, plan)
}

func TestParallelDirectAggr(t *testing.T) {
	db := parallelDB(t, 100_000)
	// Group by the enum code column: the direct-aggregation path.
	plan := algebra.NewAggr(
		algebra.NewScan("fact", "cat#", "v"),
		[]algebra.NamedExpr{algebra.NE("c", expr.C("cat#"))},
		[]algebra.AggExpr{
			algebra.Sum("s", expr.C("v")),
			algebra.Count("n"),
		},
	)
	runParallelLevels(t, db, plan)
}

func TestParallelScalarAggr(t *testing.T) {
	db := parallelDB(t, 100_000)
	plan := algebra.NewAggr(
		algebra.NewSelect(
			algebra.NewScan("fact", "v"),
			expr.LTE(expr.C("v"), expr.Float(700)),
		),
		nil,
		[]algebra.AggExpr{
			algebra.Sum("s", expr.C("v")),
			algebra.Count("n"),
			algebra.Min("lo", expr.C("v")),
			algebra.Max("hi", expr.C("v")),
		},
	)
	runParallelLevels(t, db, plan)
}

// TestParallelOrderedAggr runs ordered aggregation over a clustered scan
// whose key runs straddle morsel boundaries: a run split across workers
// yields a group in several partials, which must merge by key as hash
// partials do.
func TestParallelOrderedAggr(t *testing.T) {
	db := NewDatabase()
	keys := make([]int64, 100_000)
	vals := make([]float64, len(keys))
	for i := range keys {
		keys[i], vals[i] = int64(i/97), float64(i%13)
	}
	runs := colstore.NewTable("runs")
	must0(t, runs.AddColumn("k", vector.Int64, keys))
	must0(t, runs.AddColumn("v", vector.Float64, vals))
	db.AddTable(runs)
	plan := algebra.NewAggr(algebra.NewScan("runs", "k", "v"),
		[]algebra.NamedExpr{algebra.NE("k", expr.C("k"))},
		[]algebra.AggExpr{algebra.Sum("s", expr.C("v")), algebra.Count("n")}).WithMode(algebra.ModeOrdered)
	runParallelLevels(t, db, plan)
}

func TestParallelJoinProbe(t *testing.T) {
	db := parallelDB(t, 60_000)
	// Partitioned probe over fact, shared build over dim, aggregated above
	// the exchange so the comparison is order-insensitive.
	plan := algebra.NewAggr(
		algebra.NewJoin(
			algebra.NewScan("fact", "k", "v"),
			algebra.NewScan("dim", "dk", "dn"),
			algebra.EquiCond{L: "k", R: "dk"},
		),
		[]algebra.NamedExpr{algebra.NE("dn", expr.C("dn"))},
		[]algebra.AggExpr{
			algebra.Sum("s", expr.C("v")),
			algebra.Count("n"),
		},
	)
	runParallelLevels(t, db, plan)
}

func TestParallelSemiJoin(t *testing.T) {
	db := parallelDB(t, 60_000)
	plan := algebra.NewAggr(
		algebra.NewJoinKind(algebra.Semi,
			algebra.NewSelect(
				algebra.NewScan("fact", "k", "v"),
				expr.LTE(expr.C("v"), expr.Float(500)),
			),
			algebra.NewSelect(
				algebra.NewScan("dim", "dk"),
				expr.LTE(expr.C("dk"), expr.Int(100)),
			),
			algebra.EquiCond{L: "k", R: "dk"},
		),
		nil,
		[]algebra.AggExpr{algebra.Sum("s", expr.C("v")), algebra.Count("n")},
	)
	runParallelLevels(t, db, plan)
}

func TestParallelOrderOverExchange(t *testing.T) {
	db := parallelDB(t, 60_000)
	// Order runs serially above the exchange, restoring determinism of
	// row order.
	plan := algebra.NewOrder(
		algebra.NewAggr(
			algebra.NewScan("fact", "g", "v"),
			[]algebra.NamedExpr{algebra.NE("g", expr.C("g"))},
			[]algebra.AggExpr{algebra.Count("n")},
		),
		algebra.Asc(expr.C("g")),
	)
	opts := DefaultOptions()
	opts.Parallelism = 1
	want, err := Run(db, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		o := DefaultOptions()
		o.Parallelism = p
		got, err := Run(db, plan, o)
		if err != nil {
			t.Fatal(err)
		}
		// Exact positional comparison: output order must be deterministic.
		if want.NumRows() != got.NumRows() {
			t.Fatalf("P=%d: %d rows, want %d", p, got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumRows(); i++ {
			w, g := want.Row(i), got.Row(i)
			for c := range w {
				if w[c] != g[c] {
					t.Fatalf("P=%d row %d col %d: %v != %v", p, i, c, g[c], w[c])
				}
			}
		}
	}
}

func TestParallelEmptyTable(t *testing.T) {
	db := NewDatabase()
	empty := colstore.NewTable("empty")
	must0(t, empty.AddColumn("a", vector.Int64, []int64{}))
	must0(t, empty.AddColumn("b", vector.Float64, []float64{}))
	db.AddTable(empty)

	scanPlan := algebra.NewSelect(
		algebra.NewScan("empty", "a", "b"),
		expr.GTE(expr.C("a"), expr.Int(0)),
	)
	groupPlan := algebra.NewAggr(scanPlan,
		[]algebra.NamedExpr{algebra.NE("a", expr.C("a"))},
		[]algebra.AggExpr{algebra.Sum("s", expr.C("b"))},
	)
	scalarPlan := algebra.NewAggr(scanPlan, nil,
		[]algebra.AggExpr{algebra.Sum("s", expr.C("b")), algebra.Count("n")},
	)
	for name, plan := range map[string]algebra.Node{
		"scan": scanPlan, "group": groupPlan, "scalar": scalarPlan,
	} {
		t.Run(name, func(t *testing.T) { runParallelLevels(t, db, plan) })
	}
}

// TestParallelPendingDelta: pending inserts and deletions — on the probe
// side and on a hash join's build side — are part of every partitioned
// scan (deletions as selection vectors, the insert tail as one more
// morsel), so aggregation, sort, TopN and join build all run in parallel
// over them and agree with parallelism 1.
func TestParallelPendingDelta(t *testing.T) {
	db := parallelDB(t, 20_000)
	ds, err := db.Delta("fact")
	must0(t, err)
	for i := range 40 {
		if _, err := ds.Insert([]any{int64(i % 7), 42.0 + float64(i), int64(i % 3), "a"}); err != nil {
			t.Fatal(err)
		}
	}
	must0(t, ds.Delete(3))
	must0(t, ds.Delete(20_005)) // an insert-tail row
	dd, err := db.Delta("dim")
	must0(t, err)
	for _, k := range []int64{5, 5, 2000} {
		if _, err := dd.Insert([]any{k, "added"}); err != nil {
			t.Fatal(err)
		}
	}
	must0(t, dd.Delete(7))
	must0(t, dd.Delete(977)) // the first inserted dim row

	for _, tc := range []struct {
		name string
		plan algebra.Node
	}{
		{"aggr", algebra.NewAggr(
			algebra.NewScan("fact", "g", "v"),
			[]algebra.NamedExpr{algebra.NE("g", expr.C("g"))},
			[]algebra.AggExpr{algebra.Sum("s", expr.C("v")), algebra.Count("n")},
		)},
		{"order", algebra.NewOrder(
			algebra.NewScan("fact", "#rowid", "g", "v"), algebra.Desc(expr.C("#rowid")))},
		{"topn", algebra.NewTopN(
			algebra.NewScan("fact", "#rowid", "v"), 50, algebra.Desc(expr.C("v")), algebra.Asc(expr.C("#rowid")))},
		{"join-build", algebra.NewAggr(
			algebra.NewJoin(
				algebra.NewScan("fact", "k", "v"),
				algebra.NewScan("dim", "dk", "dn"),
				algebra.EquiCond{L: "k", R: "dk"},
			),
			[]algebra.NamedExpr{algebra.NE("dn", expr.C("dn"))},
			[]algebra.AggExpr{algebra.Sum("s", expr.C("v")), algebra.Count("n")},
		)},
	} {
		t.Run(tc.name, func(t *testing.T) { runParallelLevels(t, db, tc.plan) })
	}
	if ds.NumDeltaRows() != 40 || dd.NumDeltaRows() != 3 || ds.NumDeleted() != 2 || dd.NumDeleted() != 2 {
		t.Fatal("queries must leave the deltas pending")
	}
}

// TestParallelReopen: a Built plan must produce the full result again after
// Close/re-Open — morsel sources rewind at Open and a hash join reuses its
// build — at parallelism 1 and 4, for every operator that consumes a
// fragment. The join's build side is over the parallel-index threshold.
func TestParallelReopen(t *testing.T) {
	db := parallelDB(t, 50_000)
	big := colstore.NewTable("bigdim")
	bk := make([]int64, 20_000)
	bv := make([]int64, len(bk))
	for i := range bk {
		bk[i] = int64(i)
		bv[i] = int64(i % 11)
	}
	must0(t, big.AddColumn("bk", vector.Int64, bk))
	must0(t, big.AddColumn("bv", vector.Int64, bv))
	db.AddTable(big)

	for _, tc := range []struct {
		name    string
		plan    algebra.Node
		rows    int
		ordered bool
	}{
		{"aggr", algebra.NewAggr(algebra.NewScan("fact", "v"), nil,
			[]algebra.AggExpr{algebra.Sum("s", expr.C("v")), algebra.Count("n")}), 1, false},
		{"scan", algebra.NewScan("fact", "k"), 50_000, false},
		{"order", algebra.NewOrder(algebra.NewScan("fact", "#rowid", "v"), algebra.Desc(expr.C("#rowid"))), 50_000, true},
		{"topn", algebra.NewTopN(algebra.NewScan("fact", "#rowid", "v"), 100,
			algebra.Desc(expr.C("v")), algebra.Asc(expr.C("#rowid"))), 100, true},
		{"hashjoin", algebra.NewJoin(algebra.NewScan("fact", "k", "v"), algebra.NewScan("bigdim", "bk", "bv"),
			algebra.EquiCond{L: "k", R: "bk"}), 50_000, false},
	} {
		serial := DefaultOptions()
		want, err := Run(db, tc.plan, serial)
		must0(t, err)
		if want.NumRows() != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.name, want.NumRows(), tc.rows)
		}
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallelism%d", tc.name, p), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Parallelism = p
				op, err := Build(db, tc.plan, opts)
				must0(t, err)
				for run := range 2 {
					got, err := Drain(op)
					must0(t, err)
					if tc.ordered {
						assertRowsEqualOrdered(t, fmt.Sprintf("run %d", run), want, got)
					} else {
						assertSameResult(t, want, got)
					}
				}
			})
		}
	}
}

// TestParallelVectorSizes sweeps batch sizes across the morsel boundary.
func TestParallelVectorSizes(t *testing.T) {
	db := parallelDB(t, 50_000)
	plan := algebra.NewAggr(
		algebra.NewScan("fact", "g", "v"),
		[]algebra.NamedExpr{algebra.NE("g", expr.C("g"))},
		[]algebra.AggExpr{algebra.Sum("s", expr.C("v")), algebra.Count("n")},
	)
	serial := DefaultOptions()
	want, err := Run(db, plan, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 64, 1024, 100_000} {
		o := DefaultOptions()
		o.BatchSize = bs
		o.Parallelism = 4
		got, err := Run(db, plan, o)
		if err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		assertSameResult(t, want, got)
	}
}
