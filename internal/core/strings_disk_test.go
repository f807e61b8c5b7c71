package core

import (
	"fmt"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/expr"
	"x100/internal/vector"
)

// stringPruneDB persists a table with a sorted dates-as-strings column in
// 1000-row chunks and attaches it disk-backed, so the column's chunk zone
// map holds each chunk's string min/max from the manifest.
func stringPruneDB(t *testing.T) (*Database, int) {
	t.Helper()
	const n = 10000
	days := make([]string, n)
	vals := make([]int64, n)
	for i := range days {
		// 100 rows per "day", so chunk bounds are tight and distinct.
		days[i] = fmt.Sprintf("2024-%02d-%02d", 1+(i/100)/28, 1+(i/100)%28)
		vals[i] = int64(i)
	}
	tab := colstore.NewTable("events")
	if err := tab.AddColumn("day", vector.String, days); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("v", vector.Int64, vals); err != nil {
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
	if _, err := AttachDiskTable(db, store, "events"); err != nil {
		t.Fatal(err)
	}
	return db, n
}

// TestStringChunkPruning asserts the chunk zone map of a string column
// narrows a scan below a string range predicate to exactly the chunks
// holding matches, and that the pruned scan still returns exactly the
// matching rows.
func TestStringChunkPruning(t *testing.T) {
	db, n := stringPruneDB(t)
	pred := expr.GEE(expr.C("day"), expr.Str("2024-03-01"))

	opts := DefaultOptions()
	opts.snaps = db.newSnapSet()
	op, err := newScanOp(db, "events", []string{"day", "v"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if op.view.col("day").ZoneMap() == nil {
		t.Fatal("string column has no chunk zone map")
	}
	applySummaryBounds(op.view, pred, op)
	// The first match is row 5600, in the chunk starting at row 5000.
	if op.lo != 5000 {
		t.Errorf("scan lower bound pruned to %d, want 5000", op.lo)
	}
	if op.hi != n {
		t.Errorf("scan upper bound moved: hi=%d, want %d", op.hi, n)
	}

	// An upper-bounded predicate prunes the tail instead.
	opLE, err := newScanOp(db, "events", []string{"day"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	applySummaryBounds(opLE.view, expr.LTE(expr.C("day"), expr.Str("2024-02-01")), opLE)
	// The last match is row 2899, in the chunk ending at row 3000.
	if opLE.hi != 3000 {
		t.Errorf("scan upper bound pruned to %d, want 3000", opLE.hi)
	}

	// The pruned plan still returns exactly the matching rows.
	plan := algebra.NewAggr(
		algebra.NewSelect(algebra.NewScan("events", "day", "v"), pred),
		nil, []algebra.AggExpr{algebra.Count("n")})
	res, err := Run(db, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if fmt.Sprintf("2024-%02d-%02d", 1+(i/100)/28, 1+(i/100)%28) >= "2024-03-01" {
			want++
		}
	}
	if got := res.Row(0)[0].(int64); got != int64(want) {
		t.Errorf("pruned scan counted %d rows, want %d", got, want)
	}
}
