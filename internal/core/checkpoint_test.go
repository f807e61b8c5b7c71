package core

import (
	"fmt"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/vector"
)

func deltaTestDB(t *testing.T, n int) *Database {
	t.Helper()
	db := NewDatabase()
	tab := colstore.NewTable("ev")
	keys := make([]int32, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int32(i)
		vals[i] = float64(i % 13)
		tags[i] = []string{"a", "b", "c"}[i%3]
	}
	if err := tab.AddColumn("k", vector.Int32, keys); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("v", vector.Float64, vals); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumColumn("tag", tags); err != nil {
		t.Fatal(err)
	}
	db.AddTable(tab)
	return db
}

func evPlan(t *testing.T) algebra.Node {
	t.Helper()
	plan, err := algebra.Parse(`Aggr(Scan(ev), [tag], [n = count(), s = sum(v), mk = max(k)])`)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runSorted(t *testing.T, db *Database, plan algebra.Node, parallelism int) map[string][]any {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = parallelism
	res, err := Run(db, plan, opts)
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	out := map[string][]any{}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		out[fmt.Sprint(row[0])] = row[1:]
	}
	return out
}

// TestParallelScanWithInsertDeltas asserts a table with pending insert
// deltas executes partitioned — the insert tail is one more morsel — with
// results identical to the serial scan, and that the parallel query leaves
// the delta pending (queries never checkpoint). An explicit checkpoint then
// absorbs it without changing the answer.
func TestParallelScanWithInsertDeltas(t *testing.T) {
	const n = 5000
	db := deltaTestDB(t, n)
	ds, _ := db.Delta("ev")
	for i := 0; i < 500; i++ {
		// New enum value "d" exercises dictionary growth in the tail.
		tag := []string{"a", "d"}[i%2]
		if _, err := ds.Insert([]any{int32(n + i), float64(100 + i%7), tag}); err != nil {
			t.Fatal(err)
		}
	}
	plan := evPlan(t)
	serial := runSorted(t, db, plan, 1)
	same := func(label string, got map[string][]any) {
		t.Helper()
		if len(got) != len(serial) {
			t.Fatalf("%s: group sets differ: %v vs %v", label, got, serial)
		}
		for k, want := range serial {
			g, ok := got[k]
			if !ok {
				t.Fatalf("%s: group %q missing", label, k)
			}
			for c := range want {
				if fmt.Sprint(g[c]) != fmt.Sprint(want[c]) {
					t.Fatalf("%s: group %q col %d: %v vs %v", label, k, c, g[c], want[c])
				}
			}
		}
	}
	for _, p := range []int{2, 4, 8} {
		same(fmt.Sprintf("p=%d", p), runSorted(t, db, plan, p))
		if ds.NumDeltaRows() != 500 {
			t.Fatalf("p=%d: query touched the delta, %d rows left", p, ds.NumDeltaRows())
		}
	}
	if done, err := db.Checkpoint("ev"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	tab, _ := db.Table("ev")
	if tab.N != n+500 || tab.Col("k").NumFrags() != 2 {
		t.Fatalf("base not extended: N=%d frags=%d", tab.N, tab.Col("k").NumFrags())
	}
	same("checkpointed p=8", runSorted(t, db, plan, 8))
}

// TestParallelScanWithDeletions asserts deletion lists are honored by the
// partitioned (selection-vector) scan path at any parallelism.
func TestParallelScanWithDeletions(t *testing.T) {
	const n = 5000
	db := deltaTestDB(t, n)
	ds, _ := db.Delta("ev")
	for i := 0; i < n; i += 3 {
		if err := ds.Delete(int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	plan := evPlan(t)
	serial := runSorted(t, db, plan, 1)
	for _, p := range []int{2, 4, 8} {
		par := runSorted(t, db, plan, p)
		if len(par) != len(serial) {
			t.Fatalf("p=%d: group sets differ", p)
		}
		for k, want := range serial {
			got := par[k]
			for c := range want {
				if fmt.Sprint(got[c]) != fmt.Sprint(want[c]) {
					t.Fatalf("p=%d group %q col %d: %v vs %v", p, k, c, got[c], want[c])
				}
			}
		}
	}
	// Sanity: deletions actually removed rows (count per group shrank).
	total := 0
	for _, row := range serial {
		total += int(row[0].(int64))
	}
	if want := n - (n+2)/3; total != want {
		t.Fatalf("visible rows %d, want %d", total, want)
	}
}

// TestCheckpointThenDeleteRowIDsStable asserts checkpoint keeps row ids
// valid: a row id captured before the checkpoint deletes the same logical
// row after it.
func TestCheckpointThenDeleteRowIDsStable(t *testing.T) {
	db := deltaTestDB(t, 10)
	ds, _ := db.Delta("ev")
	id, err := ds.Insert([]any{int32(10), 42.0, "a"})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := db.Checkpoint("ev"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	if err := ds.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := ds.NumRows(); got != 10 {
		t.Fatalf("visible rows %d, want 10", got)
	}
	res, err := Run(db, mustParse(t, `Aggr(Scan(ev), [], [mk = max(k)])`), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mk := res.Row(0)[0]; fmt.Sprint(mk) != "9" {
		t.Fatalf("max k = %v after deleting checkpointed row, want 9", mk)
	}
}

func mustParse(t *testing.T, s string) algebra.Node {
	t.Helper()
	plan, err := algebra.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
