package x100_test

import (
	"errors"
	"testing"

	"x100"
	"x100/internal/columnbm"
)

// TestCreateDiskTableAndAttach covers the public disk-table API:
// CreateDiskTable persists and attaches a table, a second DB re-attaches
// the same directory, and queries agree across both plus the Storage
// report is coherent.
func TestCreateDiskTableAndAttach(t *testing.T) {
	dir := t.TempDir()
	db := x100.NewDB()
	n := 10000
	keys := make([]int64, n)
	amounts := make([]float64, n)
	status := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		amounts[i] = float64(i%100) / 2
		status[i] = []string{"open", "closed", "hold"}[i%3]
	}
	err := db.CreateDiskTable(dir, "orders",
		x100.ColumnData{Name: "id", Type: x100.Int64T, Data: keys},
		x100.ColumnData{Name: "amount", Type: x100.Float64T, Data: amounts},
		x100.ColumnData{Name: "status", Type: x100.StringT, Data: status, Enum: true},
	)
	if err != nil {
		t.Fatal(err)
	}

	q := x100.ScanT("orders", "status", "amount").
		Where(x100.Gt(x100.Col("amount"), x100.F(10))).
		AggrBy([]x100.Named{x100.Keep("status")},
			x100.SumA("total", x100.Col("amount")), x100.CountA("cnt"))

	want, err := db.Exec(q.Node())
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 3 {
		t.Fatalf("%d groups, want 3", want.NumRows())
	}

	// Parallel execution over the disk table must agree.
	gotPar, err := db.Exec(q.Node(), x100.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	sameRowSets(t, want, gotPar)

	// A second DB attaches the persisted directory and agrees too.
	db2 := x100.NewDB()
	if err := db2.AttachDisk(dir); err != nil {
		t.Fatal(err)
	}
	got2, err := db2.Exec(q.Node())
	if err != nil {
		t.Fatal(err)
	}
	sameRowSets(t, want, got2)

	// Storage report: disk-backed, chunked, coherent codec counts.
	cols, err := db2.Storage("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("%d columns in storage report", len(cols))
	}
	for _, c := range cols {
		if c.Chunks < 1 {
			t.Fatalf("column %s has no chunks", c.Name)
		}
		total := 0
		for _, k := range c.Codecs {
			total += k
		}
		if total != c.Chunks {
			t.Fatalf("column %s codecs %v != %d chunks", c.Name, c.Codecs, c.Chunks)
		}
	}
	if s := x100.FormatStorage(cols); s == "" {
		t.Fatal("empty storage rendering")
	}

	// Updates on a disk-backed table: insert + delete, checkpoint, query.
	if err := db.Insert("orders", int64(n), 999.0, "open"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("orders", 0); err != nil {
		t.Fatal(err)
	}
	done, err := db.Checkpoint("orders")
	if err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	res, err := db.Exec(x100.ScanT("orders", "id").
		AggrBy(nil, x100.MaxA("mx", x100.Col("id")), x100.CountA("n")).Node(),
		x100.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row(0)
	if row[0] != int64(n) || row[1] != int64(n) {
		t.Fatalf("after update: max=%v count=%v, want %d and %d", row[0], row[1], n, n)
	}
}

// TestDiskTableDurableUpdates covers durability through the public API: a
// checkpoint on a disk table survives a "restart" (a fresh DB attaching the
// same directory recovers the inserted rows and the deletion list), and
// Reorganize compacts the directory so the next attach starts with no
// deletions and the smaller row count.
func TestDiskTableDurableUpdates(t *testing.T) {
	dir := t.TempDir()
	db := x100.NewDB()
	n := 5000
	keys := make([]int64, n)
	status := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i)
		status[i] = []string{"open", "closed", "hold"}[i%3]
	}
	err := db.CreateDiskTable(dir, "events",
		x100.ColumnData{Name: "id", Type: x100.Int64T, Data: keys},
		x100.ColumnData{Name: "status", Type: x100.StringT, Data: status, Enum: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert("events", int64(n+i), "open"); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 50; i++ {
		if err := db.Delete("events", i*3); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := db.Checkpoint("events"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}

	count := x100.ScanT("events", "id").
		AggrBy(nil, x100.CountA("cnt"), x100.MaxA("mx", x100.Col("id"))).Node()
	want, err := db.Exec(count)
	if err != nil {
		t.Fatal(err)
	}
	// Restart: a fresh DB over the same directory sees the checkpointed
	// inserts AND deletions.
	db2 := x100.NewDB()
	if err := db2.AttachDisk(dir, "events"); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Exec(count, x100.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if want.Row(0)[0] != int64(n+100-50) || got.Row(0)[0] != want.Row(0)[0] || got.Row(0)[1] != want.Row(0)[1] {
		t.Fatalf("after restart: %v, want %v (count %d)", got.Row(0), want.Row(0), n+100-50)
	}
	rows, err := db2.NumRows("events")
	if err != nil {
		t.Fatal(err)
	}
	if rows != n+100-50 {
		t.Fatalf("restart sees %d visible rows, want %d", rows, n+100-50)
	}

	// Reorganize compacts deletions into a fresh chunk generation; the
	// next attach starts clean.
	if err := db2.Reorganize("events"); err != nil {
		t.Fatal(err)
	}
	db3 := x100.NewDB()
	if err := db3.AttachDisk(dir, "events"); err != nil {
		t.Fatal(err)
	}
	ds, err := db3.Delta("events")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumDeleted() != 0 || ds.NumRows() != n+100-50 {
		t.Fatalf("after reorganize+attach: %d rows, %d deletions; want %d and 0",
			ds.NumRows(), ds.NumDeleted(), n+100-50)
	}
	got3, err := db3.Exec(count, x100.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if got3.Row(0)[0] != want.Row(0)[0] || got3.Row(0)[1] != want.Row(0)[1] {
		t.Fatalf("after reorganize: %v, want %v", got3.Row(0), want.Row(0))
	}
	// The compacted table is still disk-backed (chunked storage report).
	cols, err := db3.Storage("events")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Chunks < 1 || cols[0].Codecs["memory"] != 0 {
		t.Fatalf("storage after reorganize: %+v", cols)
	}
}

// TestAttachDiskJoinIndicesGoStale checks that a TPC-H directory attached
// through AttachDisk gets the join-index guard of a generated database:
// the fetch plans answer as on the generated database until an Update or
// a Reorganize moves orders row ids, and then the plans fetching orders
// through l_orderrow fail with ErrStaleJoinIndex, while a plan fetching
// only part still answers. The mark survives closing the database and
// attaching the directory again: from the replayed log of an Update, from
// the row-id epoch a checkpoint of the Update commits, and from the one a
// Reorganize that dropped rows commits.
func TestAttachDiskJoinIndicesGoStale(t *testing.T) {
	const sf = 0.002
	gen, err := x100.GenerateTPCH(sf)
	if err != nil {
		t.Fatal(err)
	}
	query := func(q int) x100.Node {
		plan, err := x100.TPCHQuery(q, sf)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	want := map[int]*x100.Result{}
	for _, q := range []int{3, 12, 14} {
		if want[q], err = gen.Exec(query(q)); err != nil {
			t.Fatal(err)
		}
	}
	open := func(t *testing.T, dir string) *x100.DB {
		t.Helper()
		db := x100.NewDB()
		t.Cleanup(func() { db.Close() })
		if err := db.AttachDisk(dir); err != nil {
			t.Fatal(err)
		}
		return db
	}
	attach := func(t *testing.T) (*x100.DB, string) {
		t.Helper()
		dir := t.TempDir()
		st, err := columnbm.NewStore(dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
			tab, err := gen.Internal().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		db := open(t, dir)
		for q, w := range want {
			got, err := db.Exec(query(q))
			if err != nil {
				t.Fatalf("attached Q%d: %v", q, err)
			}
			sameRowSets(t, w, got)
		}
		return db, dir
	}
	stale := func(t *testing.T, label string, db *x100.DB) {
		t.Helper()
		for _, q := range []int{3, 12} {
			if res, err := db.Exec(query(q)); !errors.Is(err, x100.ErrStaleJoinIndex) || res != nil {
				t.Fatalf("%s: Q%d = %v, %v; want ErrStaleJoinIndex and no rows", label, q, res, err)
			}
		}
		got, err := db.Exec(query(14))
		if err != nil {
			t.Fatalf("%s: Q14: %v", label, err)
		}
		sameRowSets(t, want[14], got)
	}

	orders, err := gen.Internal().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(orders.Cols))
	for i, c := range orders.Cols {
		row[i] = c.DecodedValue(0)
	}
	update := func(db *x100.DB) error { return db.Update("orders", 0, row...) }
	for _, tc := range []struct {
		name   string
		mutate func(db *x100.DB) error
	}{
		{"update", update},
		{"update+checkpoint", func(db *x100.DB) error {
			if err := update(db); err != nil {
				return err
			}
			_, err := db.Checkpoint("orders")
			return err
		}},
		{"reorganize", func(db *x100.DB) error {
			for id := int32(0); id < 10; id++ {
				if err := db.Delete("orders", id); err != nil {
					return err
				}
			}
			return db.Reorganize("orders")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, dir := attach(t)
			if err := tc.mutate(db); err != nil {
				t.Fatal(err)
			}
			stale(t, tc.name, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			stale(t, tc.name+", re-attached", open(t, dir))
		})
	}
}
