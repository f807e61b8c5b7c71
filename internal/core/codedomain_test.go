package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/expr"
	"x100/internal/trace"
	"x100/internal/vector"
)

// sortedRows renders a result as a sorted multiset of row strings so
// code-domain and decode-first runs compare independent of row order
// (hash-chain order differs when keys hash as codes vs strings).
func sortedRows(res *Result) []string {
	out := make([]string, res.NumRows())
	for i := range out {
		out[i] = fmt.Sprintf("%v", res.Row(i))
	}
	sort.Strings(out)
	return out
}

func runBoth(t *testing.T, db *Database, plan algebra.Node, parallelism int) (code, decode *Result) {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = parallelism
	code, err := Run(db, plan, opts)
	if err != nil {
		t.Fatalf("code-domain run: %v", err)
	}
	opts.NoCodeDomain = true
	decode, err = Run(db, plan, opts)
	if err != nil {
		t.Fatalf("decode-first run: %v", err)
	}
	return code, decode
}

func assertSameRows(t *testing.T, label string, code, decode *Result) {
	t.Helper()
	a, b := sortedRows(code), sortedRows(decode)
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows code-domain, %d decode-first", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: row %d differs:\n code-domain: %s\n decode-first: %s", label, i, a[i], b[i])
		}
	}
}

// codeDomainDiskDB persists a string-heavy table in 1000-row chunks and
// attaches it: mode (7 distinct values, every chunk dict-coded -> merged
// dictionary), mixed (dict chunks interleaved with raw/prefix chunks -> no
// merged dictionary, per-chunk translation with decode-first fallback),
// and an int payload.
func codeDomainDiskDB(t *testing.T) (*Database, *colstore.Table, int) {
	t.Helper()
	const n = 10000
	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	mode := make([]string, n)
	mixed := make([]string, n)
	v := make([]int64, n)
	rng := uint64(7)
	next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
	for i := range mode {
		mode[i] = modes[int(next()%uint64(len(modes)))]
		v[i] = int64(i)
		switch (i / 1000) % 3 {
		case 0: // dict chunk: low cardinality
			mixed[i] = modes[int(next()%uint64(len(modes)))]
		case 1: // raw chunk: incompressible random strings
			mixed[i] = fmt.Sprintf("r%016x%016x", next(), next())
		default: // prefix chunk: shared-prefix ascending keys
			mixed[i] = fmt.Sprintf("key-prefix-%08d", i)
		}
	}
	tab := colstore.NewTable("events")
	if err := tab.AddColumn("mode", vector.String, mode); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("mixed", vector.String, mixed); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("v", vector.Int64, v); err != nil {
		t.Fatal(err)
	}
	store, err := columnbm.NewStore(t.TempDir(), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	att, err := AttachDiskTable(db, store, "events")
	if err != nil {
		t.Fatal(err)
	}
	return db, att, n
}

// TestMergedDictAttach asserts the attach-time merged dictionary exists
// exactly where it should: on the fully dict-coded column, not on the
// mixed-codec one, sorted, and complete.
func TestMergedDictAttach(t *testing.T) {
	_, tab, _ := codeDomainDiskDB(t)
	md := tab.Col("mode").MergedDict()
	if md == nil {
		t.Fatal("mode column has no merged dictionary")
	}
	if !md.Sorted {
		t.Error("merged dictionary not marked sorted")
	}
	if md.Len() != 7 {
		t.Errorf("merged cardinality %d, want 7", md.Len())
	}
	if !sort.StringsAreSorted(md.Values) {
		t.Errorf("merged dictionary not sorted: %v", md.Values)
	}
	if _, _, ok := tab.Col("mode").CodeDomain(); !ok {
		t.Error("mode column has no code domain")
	}
	if tab.Col("mixed").MergedDict() != nil {
		t.Error("mixed-codec column unexpectedly has a merged dictionary")
	}
	if tab.Col("v").MergedDict() != nil {
		t.Error("integer column unexpectedly has a merged dictionary")
	}
}

// TestCodeDomainPredicates runs every translatable predicate shape over
// both the merged-dict column and the mixed-codec column (per-chunk
// translation with decode-first fallback on raw/prefix chunks) and
// requires identical results to decode-first execution.
func TestCodeDomainPredicates(t *testing.T) {
	db, _, _ := codeDomainDiskDB(t)
	preds := []struct {
		name string
		e    expr.Expr
	}{
		{"eq", expr.EQE(expr.C("mode"), expr.Str("RAIL"))},
		{"eq-missing", expr.EQE(expr.C("mode"), expr.Str("ZEPPELIN"))},
		{"ne", expr.NEE(expr.C("mode"), expr.Str("AIR"))},
		{"ne-missing", expr.NEE(expr.C("mode"), expr.Str("ZEPPELIN"))},
		{"lt", expr.LTE(expr.C("mode"), expr.Str("MAIL"))},
		{"le", expr.LEE(expr.C("mode"), expr.Str("MAIL"))},
		{"gt", expr.GTE(expr.C("mode"), expr.Str("REG"))},
		{"ge", expr.GEE(expr.C("mode"), expr.Str("REG AIR"))},
		{"in", expr.InE(expr.C("mode"), expr.Str("SHIP"), expr.Str("FOB"), expr.Str("NONE"))},
		{"like", expr.LikeE(expr.C("mode"), "%AI%")},
		{"or-same-col", expr.OrE(
			expr.EQE(expr.C("mode"), expr.Str("AIR")),
			expr.EQE(expr.C("mode"), expr.Str("TRUCK")))},
		{"conj-two-cols", expr.AndE(
			expr.GEE(expr.C("mode"), expr.Str("MAIL")),
			expr.GTE(expr.C("v"), expr.Int(5000)))},
		{"mixed-eq", expr.EQE(expr.C("mixed"), expr.Str("RAIL"))},
		{"mixed-like", expr.LikeE(expr.C("mixed"), "key-prefix-0000%")},
		{"mixed-and-mode", expr.AndE(
			expr.EQE(expr.C("mixed"), expr.Str("SHIP")),
			expr.LEE(expr.C("mode"), expr.Str("RAIL")))},
	}
	for _, p := range preds {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", p.name, par), func(t *testing.T) {
				plan := algebra.NewSelect(algebra.NewScan("events", "mode", "mixed", "v"), p.e)
				code, decode := runBoth(t, db, plan, par)
				assertSameRows(t, p.name, code, decode)
			})
		}
	}
}

// TestCodeDomainCounters asserts the new trace counters fire: code-domain
// predicate evaluations, skipped (never-materialized) values on the
// pushdown path, and decode-first fallbacks on non-dict chunks.
func TestCodeDomainCounters(t *testing.T) {
	db, _, _ := codeDomainDiskDB(t)
	tr := trace.New()
	opts := DefaultOptions()
	opts.Tracer = tr
	plan := algebra.NewSelect(algebra.NewScan("events", "mode", "mixed", "v"),
		expr.EQE(expr.C("mode"), expr.Str("RAIL")))
	if _, err := Run(db, plan, opts); err != nil {
		t.Fatal(err)
	}
	if tr.CounterValue("select_code_domain") == 0 {
		t.Error("select_code_domain counter not recorded")
	}
	if tr.CounterValue("scan_skipped_values") == 0 {
		t.Error("scan_skipped_values counter not recorded (no selection pushdown?)")
	}
	if tr.CounterValue("scan_decoded_values") == 0 {
		t.Error("scan_decoded_values counter not recorded")
	}

	// The mixed column's raw/prefix chunks must take the decode-first path.
	tr2 := trace.New()
	opts.Tracer = tr2
	plan2 := algebra.NewSelect(algebra.NewScan("events", "mixed", "v"),
		expr.EQE(expr.C("mixed"), expr.Str("SHIP")))
	if _, err := Run(db, plan2, opts); err != nil {
		t.Fatal(err)
	}
	if tr2.CounterValue("select_code_domain") == 0 {
		t.Error("per-chunk translation never ran on dict chunks")
	}
	if tr2.CounterValue("select_decode_first") == 0 {
		t.Error("decode-first fallback never ran on raw/prefix chunks")
	}
}

// TestCodeDomainGroupBy checks the group-key rewrite end to end on the
// merged-dict column: identical groups and aggregates, serial and
// parallel, and the rewritten plan no longer hashes strings.
func TestCodeDomainGroupBy(t *testing.T) {
	db, _, _ := codeDomainDiskDB(t)
	plan := algebra.NewOrder(
		algebra.NewAggr(
			algebra.NewSelect(algebra.NewScan("events", "mode", "v"),
				expr.GTE(expr.C("v"), expr.Int(100))),
			[]algebra.NamedExpr{algebra.NE("mode", expr.C("mode"))},
			[]algebra.AggExpr{
				algebra.Count("n"),
				algebra.Sum("sv", expr.C("v")),
				algebra.Min("mn", expr.C("mode")),
			}),
		algebra.Asc(expr.C("mode")))
	for _, par := range []int{1, 2, 8} {
		code, decode := runBoth(t, db, plan, par)
		assertSameRows(t, fmt.Sprintf("groupby p=%d", par), code, decode)
	}

	tr := trace.New()
	opts := DefaultOptions()
	opts.Tracer = tr
	if _, err := Run(db, plan, opts); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Primitives() {
		if s.Name == "map_hash_col" {
			// Hash aggregation may still run, but on the uint8 codes; the
			// tell-tale full-string group materialization is the gather at
			// emit only. Direct aggregation (7 codes -> uint8) should have
			// removed hashing entirely for this single-key group-by.
			t.Errorf("code-domain group-by still hashed group keys")
		}
	}
}

// TestCodeDomainJoin joins two disk tables on dictionary-backed string
// keys with distinct dictionaries (overlapping but unequal value sets) for
// every join kind, comparing against decode-first execution.
func TestCodeDomainJoin(t *testing.T) {
	const n = 4000
	left := make([]string, n)
	lv := make([]int64, n)
	lmodes := []string{"AIR", "FOB", "MAIL", "RAIL", "SHIP", "ONLY-LEFT"}
	rmodes := []string{"AIR", "FOB", "MAIL", "RAIL", "SHIP", "ONLY-RIGHT"}
	right := make([]string, n/2)
	rv := make([]int64, n/2)
	for i := range left {
		left[i] = lmodes[i%len(lmodes)]
		lv[i] = int64(i)
	}
	for i := range right {
		right[i] = rmodes[i%len(rmodes)]
		rv[i] = int64(i * 10)
	}
	lt := colstore.NewTable("lt")
	if err := lt.AddColumn("lmode", vector.String, left); err != nil {
		t.Fatal(err)
	}
	if err := lt.AddColumn("lv", vector.Int64, lv); err != nil {
		t.Fatal(err)
	}
	rt := colstore.NewTable("rt")
	if err := rt.AddColumn("rmode", vector.String, right); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddColumn("rv", vector.Int64, rv); err != nil {
		t.Fatal(err)
	}
	store, err := columnbm.NewStore(t.TempDir(), 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(lt); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(rt); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if _, err := AttachDiskTable(db, store, "lt"); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachDiskTable(db, store, "rt"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("lt")
	if tbl.Col("lmode").MergedDict() == nil {
		t.Fatal("lmode has no merged dictionary; join test would not exercise code keys")
	}
	// Keep the build side small so expansion joins stay manageable.
	rsel := algebra.NewSelect(algebra.NewScan("rt", "rmode", "rv"),
		expr.LTE(expr.C("rv"), expr.Int(300)))
	for _, kind := range []algebra.JoinKind{algebra.Inner, algebra.Semi, algebra.Anti, algebra.LeftOuter, algebra.Mark} {
		j := algebra.NewJoinKind(kind, algebra.NewScan("lt", "lmode", "lv"), rsel,
			algebra.EquiCond{L: "lmode", R: "rmode"})
		if kind == algebra.Mark {
			j = j.WithMark("matched")
		}
		var plan algebra.Node = j
		for _, par := range []int{1, 4} {
			code, decode := runBoth(t, db, plan, par)
			assertSameRows(t, fmt.Sprintf("join %v p=%d", kind, par), code, decode)
		}
	}
}

// TestCodeDomainLeftOuterGroupKey pins the left-outer padding rule: a
// group key flowing from the RIGHT side of a left-outer join must NOT be
// rewritten onto codes — unmatched left rows zero-pad the right columns,
// and a padded code 0 would rehydrate to dictionary value 0 instead of the
// empty string. The "" group must survive identically on both paths.
func TestCodeDomainLeftOuterGroupKey(t *testing.T) {
	db := NewDatabase()
	lt := colstore.NewTable("lo_left")
	if err := lt.AddColumn("k", vector.Int32, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	rt := colstore.NewTable("lo_right")
	if err := rt.AddColumn("rk", vector.Int32, []int32{1, 2}); err != nil {
		t.Fatal(err)
	}
	// First-occurrence order "zeta","alpha": code 0 is "zeta", so folding a
	// padded 0 into the dictionary is observable.
	if err := rt.AddEnumColumn("grp", []string{"zeta", "alpha"}); err != nil {
		t.Fatal(err)
	}
	db.AddTable(lt)
	db.AddTable(rt)
	registerDictTables(db, rt)
	plan := algebra.NewAggr(
		algebra.NewJoinKind(algebra.LeftOuter,
			algebra.NewScan("lo_left", "k"),
			algebra.NewScan("lo_right", "rk", "grp"),
			algebra.EquiCond{L: "k", R: "rk"}),
		[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
		[]algebra.AggExpr{algebra.Count("n")})
	code, decode := runBoth(t, db, plan, 1)
	assertSameRows(t, "leftouter group key", code, decode)
	found := false
	for i := 0; i < code.NumRows(); i++ {
		if code.Row(i)[0] == "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unmatched left row lost its empty-string group: %v", sortedRows(code))
	}
}

// TestCodeDomainWithDeletions checks a scan with a pushed-down predicate
// respects the deletion list (deleted rows are filtered before predicate
// evaluation).
func TestCodeDomainWithDeletions(t *testing.T) {
	db, _, n := codeDomainDiskDB(t)
	ds, err := db.Delta("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		if err := ds.Delete(int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	plan := algebra.NewSelect(algebra.NewScan("events", "mode", "v"),
		expr.EQE(expr.C("mode"), expr.Str("SHIP")))
	for _, par := range []int{1, 4} {
		code, decode := runBoth(t, db, plan, par)
		assertSameRows(t, fmt.Sprintf("deletions p=%d", par), code, decode)
	}
}

// TestCodeDomainWithInsertDelta checks the code domain survives pending
// inserts: base batches still run the translated code steps, only the
// insert-tail rows evaluate decode-first (they may carry values no
// dictionary holds), the group-key rewrite declines, and a "<col>#" scan
// whose tail holds a value outside the merged dictionary fails with an
// explicit error — results must match decode-first execution throughout.
func TestCodeDomainWithInsertDelta(t *testing.T) {
	db, _, _ := codeDomainDiskDB(t)
	ds, err := db.Delta("events")
	if err != nil {
		t.Fatal(err)
	}
	const tail = 50
	for i := 0; i < tail; i++ {
		m := "SHIP"
		if i%5 == 0 {
			m = "TELEPORT" // value absent from every dictionary
		}
		if _, err := ds.Insert([]any{m, fmt.Sprintf("note-%d", i), int64(100000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	plan := algebra.NewSelect(algebra.NewScan("events", "mode", "v"),
		expr.EQE(expr.C("mode"), expr.Str("TELEPORT")))
	for _, par := range []int{1, 4} {
		code, decode := runBoth(t, db, plan, par)
		assertSameRows(t, fmt.Sprintf("delta scan p=%d", par), code, decode)
		if code.NumRows() != 10 {
			t.Fatalf("p=%d: delta rows found: %d, want 10", par, code.NumRows())
		}
	}
	tr := trace.New()
	opts := DefaultOptions()
	opts.Tracer = tr
	if _, err := Run(db, plan, opts); err != nil {
		t.Fatal(err)
	}
	if tr.CounterValue("select_code_domain") == 0 {
		t.Error("base batches left the code domain while inserts are pending")
	}
	if got := tr.CounterValue("select_decode_first"); got != tail {
		t.Errorf("select_decode_first = %d, want exactly the %d tail rows", got, tail)
	}
	_, err = Run(db, algebra.NewScan("events", "mode#"), DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "not in the attached merged dictionary") {
		t.Fatalf(`"mode#" scan over a TELEPORT insert: err = %v, want the merged-dictionary error`, err)
	}
}
