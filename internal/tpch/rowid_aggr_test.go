package tpch

import (
	"fmt"
	"slices"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/expr"
	"x100/internal/mil"
	"x100/internal/trace"
	"x100/internal/vector"
)

// rowIDChunkRows is the chunk grid of the disk twin in the row-id
// aggregation differential; the vector sizes straddle it.
const rowIDChunkRows = 512

// rowIDTwins builds a fact table f whose int32 column ref is registered as
// a join index onto the dimension table d, in memory and saved to and
// attached from disk, and applies the same writes to both:
//   - ref holds -1 (no reference) in every 50th generated row;
//   - rows of both tables are deleted, before and after a checkpoint;
//   - inserts into f carry ref values past d's rows (= |d|, 1<<30) and
//     negative ones other than -1;
//   - d gets a pending insert tail, and f rows that reference it, so the
//     domain of ref grows within the snapshot.
//
// It returns the twins and an oracle: a database holding f's live rows as
// a plain table, without deltas, that MIL can scan.
func rowIDTwins(t *testing.T) (mem, disk, oracle *core.Database) {
	t.Helper()
	const nd, nf = 300, 4000
	dk := make([]int32, nd)
	for i := range dk {
		dk[i] = int32(i)
	}
	ref, k := make([]int32, nf), make([]int32, nf)
	v := make([]float64, nf)
	for i := range ref {
		ref[i] = int32(i * 7 % nd)
		if i%50 == 49 {
			ref[i] = -1
		}
		k[i], v[i] = int32(i%10), float64(i%97)/4
	}
	mem = core.NewDatabase()
	dt, ft := colstore.NewTable("d"), colstore.NewTable("f")
	must(dt.AddColumn("dk", vector.Int32, dk))
	must(ft.AddColumn("ref", vector.Int32, ref))
	must(ft.AddColumn("v", vector.Float64, v))
	must(ft.AddColumn("k", vector.Int32, k))
	mem.AddTable(dt)
	mem.AddTable(ft)

	dir := t.TempDir()
	store, err := columnbm.NewStore(dir, rowIDChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	disk = core.NewDatabase()
	for _, tab := range []*colstore.Table{dt, ft} {
		if err := store.SaveTable(tab); err != nil {
			t.Fatal(err)
		}
		if _, err := core.AttachDiskTable(disk, store, tab.Name); err != nil {
			t.Fatal(err)
		}
	}
	tw := twinDBs{mem: mem, disk: disk}
	tw.each(t, func(db *core.Database) error { return db.RegisterJoinIndex("f", "d", "ref") })
	insertF := func(db *core.Database, refs ...int32) error {
		for i, r := range refs {
			if _, err := db.Insert("f", []any{r, float64(i%5) + 0.5, int32(i % 10)}); err != nil {
				return err
			}
		}
		return nil
	}
	tw.each(t, func(db *core.Database) error {
		for id := int32(3); id < nf; id += 13 {
			if err := db.Delete("f", id); err != nil {
				return err
			}
		}
		for id := int32(5); id < nd; id += 17 {
			if err := db.Delete("d", id); err != nil {
				return err
			}
		}
		return insertF(db, nd, nd, 1<<30, -7, -1, 5, 1<<30)
	})
	for _, tab := range []string{"d", "f"} {
		tw.each(t, func(db *core.Database) error {
			_, err := db.Checkpoint(tab)
			return err
		})
	}
	tw.each(t, func(db *core.Database) error {
		for i := range 20 {
			if _, err := db.Insert("d", []any{int32(nd + i)}); err != nil {
				return err
			}
		}
		if err := db.Delete("f", 10); err != nil {
			return err
		}
		return insertF(db, nd, nd+19, nd+19, nd+20, 1<<30, -1, -7, 0, nd+3)
	})

	live, err := core.Run(mem, algebra.NewScan("f", "ref", "v", "k"), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lt := colstore.NewTable("f")
	lref, lv, lk := make([]int32, live.NumRows()), make([]float64, live.NumRows()), make([]int32, live.NumRows())
	for i := range lref {
		row := live.Row(i)
		lref[i], lv[i], lk[i] = row[0].(int32), row[1].(float64), row[2].(int32)
	}
	must(lt.AddColumn("ref", vector.Int32, lref))
	must(lt.AddColumn("v", vector.Float64, lv))
	must(lt.AddColumn("k", vector.Int32, lk))
	oracle = core.NewDatabase()
	oracle.AddTable(lt)
	return mem, disk, oracle
}

// rowIDAggrPlan groups f by its join-index column, renamed through a
// Project over a Select, so the key resolves to the Scan column it comes
// from across both.
func rowIDAggrPlan(aggs []algebra.AggExpr, mode algebra.AggMode) algebra.Node {
	in := algebra.NewProject(
		algebra.NewSelect(algebra.NewScan("f", "ref", "v", "k"), expr.LTE(expr.C("k"), expr.Int32Const(8))),
		algebra.NE("r", expr.C("ref")), algebra.NE("v", expr.C("v")), algebra.NE("k", expr.C("k")))
	return algebra.NewAggr(in, []algebra.NamedExpr{algebra.NE("r", expr.C("r"))}, aggs).WithMode(mode)
}

// TestRowIDAggrDifferential runs direct aggregation over a join index's
// row ids against the same plan forced through hash aggregation and
// against MIL, for every aggregate and none, at vector sizes around 1, the
// default and the chunk grid, at parallelism 1, 2 and 8, on memory and
// disk. The keys include -1, values past the referenced table's rows and
// the referenced table's insert tail, and both tables have deletions.
func TestRowIDAggrDifferential(t *testing.T) {
	mem, disk, oracle := rowIDTwins(t)
	shapes := map[string][]algebra.AggExpr{
		"sum":   {algebra.Sum("s", expr.C("v")), algebra.Sum("sk", expr.C("k"))},
		"count": {algebra.Count("n")},
		"minmax": {algebra.Min("lo", expr.C("k")), algebra.Max("hi", expr.C("k")),
			algebra.Min("vlo", expr.C("v")), algebra.Max("vhi", expr.C("v"))},
		"avg":      {algebra.Avg("a", expr.C("v"))},
		"distinct": nil,
	}
	milE := mil.New(oracle)
	for name, aggs := range shapes {
		direct, hash := rowIDAggrPlan(aggs, algebra.ModeAuto), rowIDAggrPlan(aggs, algebra.ModeHash)
		want, err := milE.Run(direct)
		if err != nil {
			t.Fatalf("%s: mil: %v", name, err)
		}
		for label, db := range map[string]*core.Database{"mem": mem, "disk": disk} {
			for _, p := range []int{1, 2, 8} {
				for _, vs := range []int{1, 7, 1024, rowIDChunkRows - 1, rowIDChunkRows + 1} {
					opts := core.DefaultOptions()
					opts.Parallelism, opts.BatchSize = p, vs
					opts.Tracer = trace.New()
					for mode, plan := range map[string]algebra.Node{"direct": direct, "hash": hash} {
						got, err := core.Run(db, plan, opts)
						if err != nil {
							t.Fatalf("%s %s %s p=%d vs=%d: %v", name, label, mode, p, vs, err)
						}
						sameRowMultisets(t, fmt.Sprintf("%s %s %s p=%d vs=%d", name, label, mode, p, vs), want, got)
					}
					if !ranRowIDDirect(opts.Tracer) {
						t.Fatalf("%s %s p=%d vs=%d: no row-id direct aggregation in the trace", name, label, p, vs)
					}
				}
			}
		}
	}

	// The textual DirectAggr over the join-index column builds, and
	// answers as hash aggregation does.
	textual, err := algebra.Parse(`DirectAggr(Scan(f, [ref, v]), [ref], [n = count(), s = sum(v)])`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := milE.Run(textual)
	if err != nil {
		t.Fatal(err)
	}
	for label, db := range map[string]*core.Database{"mem": mem, "disk": disk} {
		got, err := core.Run(db, textual, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: DirectAggr: %v", label, err)
		}
		sameRowMultisets(t, label+" DirectAggr", want, got)
	}
	// A column that only shares the join index's name does not count.
	if _, err := core.Run(oracle, textual, core.DefaultOptions()); err == nil {
		t.Fatal("DirectAggr over an unregistered int32 column built")
	}
}

// ranRowIDDirect reports whether a trace holds a direct aggregation over
// row ids: the Aggr(DIRECT) operator and its row-id group-id primitive.
func ranRowIDDirect(tr *trace.Collector) bool {
	has := func(stats []*trace.Stat, name string) bool {
		return slices.ContainsFunc(stats, func(s *trace.Stat) bool { return s.Name == name })
	}
	return has(tr.Operators(), "Aggr(DIRECT)") && has(tr.Primitives(), "map_directgrp_uidx_col_sint_col")
}

// TestRowIDAggrPlans pins the plans that group by a join index — Q4, Q18
// and Q21 by l_orderrow, Q10 by o_custrow — to direct aggregation over the
// referenced table's rows, so that a change cannot fall back to hash
// aggregation unnoticed.
func TestRowIDAggrPlans(t *testing.T) {
	db := getDB(t)
	for _, q := range []int{4, 10, 18, 21} {
		plan, err := Query(q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Tracer = trace.New()
		if _, err := core.Run(db, plan, opts); err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if !ranRowIDDirect(opts.Tracer) {
			t.Errorf("Q%d: no row-id direct aggregation in the trace:\n%s", q, opts.Tracer.Render())
		}
	}
}
