package tpch

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"x100/internal/algebra"
	"x100/internal/core"
	"x100/internal/expr"
)

// fetchJoinPlan queries lineitem joined to orders THROUGH the l_orderrow
// join index: a Fetch1Join fetches each lineitem row's orders row by row
// id, so row ids that moved under the index would surface as wrong
// aggregates.
func fetchJoinPlan(t *testing.T) algebra.Node {
	t.Helper()
	plan, err := algebra.Parse(`Aggr(Fetch1Join(Scan(lineitem, [l_orderrow, l_quantity, l_extendedprice]),
	                             orders, l_orderrow, [o_orderkey]),
	                             [], [n = count(), q = sum(l_quantity), s = sum(l_extendedprice)])`)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestReorganizeJoinIndices checks the join indices across Reorganize,
// which rewrites a table without its deleted rows and so moves its row
// ids. Reorganizing lineitem, the table that holds the join-index columns,
// moves their values with their rows: a query through l_orderrow must
// match the in-memory twin before the compaction, after it, and after a
// cold re-attach, and all 22 queries answer as before. The subtests move
// the row ids of orders, the referenced table, instead.
func TestReorganizeJoinIndices(t *testing.T) {
	mem, err := Generate(Config{SF: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}

	lt, err := mem.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < lt.N/5; i++ {
		id := int32(rng.Intn(lt.N))
		tw.each(t, func(db *core.Database) error {
			ds, err := db.Delta("lineitem")
			if err != nil {
				return err
			}
			return ds.Delete(id)
		})
	}
	plan := fetchJoinPlan(t)
	check := func(label string, against *core.Database) {
		t.Helper()
		want, err := core.Run(mem, plan, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s mem: %v", label, err)
		}
		for _, p := range []int{1, 2} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			got, err := core.Run(against, plan, opts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", label, p, err)
			}
			sameRowMultisets(t, fmt.Sprintf("%s p=%d", label, p), want, got)
		}
	}
	check("pre-reorganize", disk)
	// Reorganizing lineitem, the table holding the join indices, moves
	// their values with their rows: every query answers as before.
	answers := make([]*core.Result, NumQueries+1)
	for q := 1; q <= NumQueries; q++ {
		plan, err := Query(q, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		if answers[q], err = core.Run(mem, plan, core.DefaultOptions()); err != nil {
			t.Fatalf("Q%d pre-reorganize: %v", q, err)
		}
	}

	tw.each(t, func(db *core.Database) error { return db.Reorganize("lineitem") })
	for q := 1; q <= NumQueries; q++ {
		plan, err := Query(q, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		for label, db := range map[string]*core.Database{"mem": mem, "disk": disk} {
			for _, p := range []int{1, 2} {
				opts := core.DefaultOptions()
				opts.Parallelism = p
				got, err := core.Run(db, plan, opts)
				if err != nil {
					t.Fatalf("Q%d post-reorganize %s p=%d: %v", q, label, p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("Q%d post-reorganize %s p=%d", q, label, p), answers[q], got)
			}
		}
	}
	check("post-reorganize", disk)

	restarted, _ := attachAll(t, dir, 8)
	check("restart", restarted)

	for _, n := range []int{1, 40} {
		t.Run(fmt.Sprintf("orders-deleted=%d", n), func(t *testing.T) { reorganizeReferenced(t, n) })
	}
	t.Run("checkpoint-breaks-clustering", checkpointBreaksClustering)
}

// checkpointBreaksClustering inserts one lineitem row for orders row 5 and
// checkpoints lineitem on memory and disk. The row's l_orderrow is valid
// but lands after lineitem's last row, so the checkpointed column is no
// longer ascending. Moving no orders row id, it leaves l_orderrow valid:
// the plan through it must match the hash join, the new row included.
func checkpointBreaksClustering(t *testing.T) {
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
	ot, err := mem.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	row := slices.Clone(lastRowTemplate(t, mem, "lineitem"))
	row[schema.ColIndex("l_orderkey")] = ot.Col("o_orderkey").DecodedValue(5)
	row[schema.ColIndex("l_orderrow")] = int32(5)
	tw.each(t, func(db *core.Database) error {
		_, err := db.Insert("lineitem", row)
		return err
	})
	tw.each(t, func(db *core.Database) error {
		_, err := db.Checkpoint("lineitem")
		return err
	})
	want, err := core.Run(mem, hashJoinPlan(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := fetchJoinPlan(t)
	for label, db := range map[string]*core.Database{"mem": mem, "disk": disk} {
		for _, p := range []int{1, 2} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			got, err := core.Run(db, plan, opts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", label, p, err)
			}
			sameRowMultisets(t, fmt.Sprintf("%s p=%d", label, p), want, got)
		}
	}
}

// hashJoinPlan is fetchJoinPlan's answer through a hash join on the keys,
// which no row-id column can make stale.
func hashJoinPlan() algebra.Node {
	return algebra.NewAggr(
		algebra.NewJoin(algebra.NewScan("lineitem", "l_orderkey", "l_quantity", "l_extendedprice"),
			algebra.NewScan("orders", "o_orderkey"), algebra.EquiCond{L: "l_orderkey", R: "o_orderkey"}),
		nil, []algebra.AggExpr{algebra.Count("n"), algebra.Sum("q", expr.C("l_quantity")),
			algebra.Sum("s", expr.C("l_extendedprice"))})
}

// reorganizeReferenced deletes n orders rows and reorganizes orders, the
// table l_orderrow references. That moves the orders row ids while
// lineitem's l_orderrow keeps the old ones, so the join index goes stale:
// Reorganize succeeds, and plans through l_orderrow — Q12 among them —
// fail to build with ErrStaleRangeIndex and return no rows instead of
// answering wrongly, also after a cold re-attach. The hash join agrees
// with the plan through l_orderrow before, and across memory and disk
// after. The cutover is complete: the old chunk generation is removed, and
// writes acknowledged after it survive a cold re-attach.
func reorganizeReferenced(t *testing.T, n int) {
	mem, err := Generate(Config{SF: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, store := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}
	ot, err := mem.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rand.New(rand.NewSource(int64(n))).Perm(ot.N)[:n] {
		tw.each(t, func(db *core.Database) error { return db.Delete("orders", int32(id)) })
	}
	fetchPlan, hashPlan := fetchJoinPlan(t), hashJoinPlan()
	run := func(db *core.Database, plan algebra.Node, p int) (*core.Result, error) {
		opts := core.DefaultOptions()
		opts.Parallelism = p
		return core.Run(db, plan, opts)
	}
	want, err := run(mem, hashPlan, 1)
	if err != nil {
		t.Fatal(err)
	}
	q12, err := Query(12, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, db *core.Database, valid bool) {
		t.Helper()
		for _, p := range []int{1, 2} {
			plans := map[string]algebra.Node{"hash": hashPlan}
			if valid {
				plans["fetch"] = fetchPlan
			}
			for name, plan := range plans {
				got, err := run(db, plan, p)
				if err != nil {
					t.Fatalf("%s %s p=%d: %v", label, name, p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("%s %s p=%d", label, name, p), want, got)
			}
			if valid {
				continue
			}
			for name, plan := range map[string]algebra.Node{"fetch": fetchPlan, "Q12": q12} {
				if res, err := run(db, plan, p); !errors.Is(err, core.ErrStaleRangeIndex) || res != nil {
					t.Fatalf("%s p=%d: %s through stale l_orderrow = %v, %v; want ErrStaleRangeIndex and no rows", label, p, name, res, err)
				}
			}
		}
	}
	check("pre-reorganize mem", mem, true)
	check("pre-reorganize disk", disk, true)
	for label, db := range map[string]*core.Database{"mem": mem, "disk": disk} {
		if err := db.Reorganize("orders"); err != nil {
			t.Fatalf("%s: Reorganize(orders) = %v", label, err)
		}
		check("post-reorganize "+label, db, false)
		// Reorganizing lineitem moves the stale values with their rows.
		if err := db.Reorganize("lineitem"); err != nil {
			t.Fatalf("%s: Reorganize(lineitem) = %v", label, err)
		}
		check("post-reorganize lineitem "+label, db, false)
	}
	m, err := store.ReadManifest("orders")
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := filepath.Glob(filepath.Join(dir, "orders.*.chunk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range chunks {
		if !strings.Contains(filepath.Base(f), fmt.Sprintf(".g%d.", m.Gen)) {
			t.Fatalf("superseded orders chunk survives the cutover: %s (manifest gen %d)", f, m.Gen)
		}
	}

	restarted, _ := attachAll(t, dir, 8)
	check("restart", restarted, false)

	// Writes after the cutover go to the rotated WAL and survive restart.
	tmpl := lastRowTemplate(t, mem, "orders")
	tw.each(t, func(db *core.Database) error {
		if _, err := db.Insert("orders", tmpl); err != nil {
			return err
		}
		return db.Delete("orders", 0)
	})
	if want, err = run(mem, hashPlan, 1); err != nil {
		t.Fatal(err)
	}
	ordersPlan := algebra.NewAggr(algebra.NewScan("orders", "o_orderkey"), nil,
		[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("k", expr.C("o_orderkey"))})
	wantOrders, err := run(mem, ordersPlan, 1)
	if err != nil {
		t.Fatal(err)
	}
	restarted, _ = attachAll(t, dir, 8)
	check("restart after writes", restarted, false)
	gotOrders, err := run(restarted, ordersPlan, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultisets(t, "restart after writes orders", wantOrders, gotOrders)
}

// TestCompactorCountsStaleIndexDrop runs the background compactor over an
// orders table past its delete threshold. The compaction moves the orders
// row ids under lineitem's l_orderrow; the compactor counts it as a
// completed compaction, not a failure, and Q12 through the stale join index
// then fails with ErrStaleRangeIndex.
func TestCompactorCountsStaleIndexDrop(t *testing.T) {
	mem, err := Generate(Config{SF: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	for id := int32(0); id < 40; id++ {
		if err := disk.Delete("orders", id); err != nil {
			t.Fatal(err)
		}
	}
	comp := core.StartCompactor(disk, core.CompactorOptions{Interval: 2 * time.Millisecond, DeleteFraction: 0.001})
	settle(t, "orders compaction", func() bool { return comp.Status().Compactions > 0 })
	comp.Stop()
	st := comp.Status()
	if st.Errors != 0 || st.LastError != nil {
		t.Fatalf("compactor: %d errors, last: %v", st.Errors, st.LastError)
	}
	q12, err := Query(12, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := core.Run(disk, q12, core.DefaultOptions()); !errors.Is(err, core.ErrStaleRangeIndex) || res != nil {
		t.Fatalf("Q12 through stale l_orderrow = %v, %v; want ErrStaleRangeIndex and no rows", res, err)
	}
}

// TestScanSnapshotAcrossCheckpoint locks down snapshot isolation across
// maintenance: an operator built BEFORE a checkpoint and a compaction must
// drain against the pre-checkpoint fragment view and return exactly what
// the in-memory twin returned at build time, even though the delta was
// absorbed, the base was rewritten, and the old chunk generation was
// scheduled for removal while the scan was still holding it.
func TestScanSnapshotAcrossCheckpoint(t *testing.T) {
	mem, err := Generate(Config{SF: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}
	tmpl := lastRowTemplate(t, mem, "lineitem")

	lt, err := mem.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tw.each(t, func(db *core.Database) error {
		for i := 0; i < 300; i++ {
			if _, err := db.Insert("lineitem", tmpl); err != nil {
				return err
			}
		}
		return nil
	})
	plan, err := Query(1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(mem, plan, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Build (and thereby snapshot) the disk-side scan, then mutate, absorb
	// and compact underneath it before draining a single batch.
	op, err := core.Build(disk, plan, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := int32(rng.Intn(lt.N))
		tw.each(t, func(db *core.Database) error { return db.Delete("lineitem", id) })
	}
	tw.each(t, func(db *core.Database) error {
		for i := 0; i < 500; i++ {
			if _, err := db.Insert("lineitem", tmpl); err != nil {
				return err
			}
		}
		return nil
	})
	if done, err := disk.Checkpoint("lineitem"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	if err := disk.Reorganize("lineitem"); err != nil {
		t.Fatal(err)
	}
	got, err := core.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultisets(t, "pre-checkpoint snapshot", want, got)

	// A fresh scan sees the post-maintenance state, still equal to the twin.
	want2, err := core.Run(mem, plan, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got2, err := core.Run(disk, plan, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultisets(t, "post-checkpoint", want2, got2)
}

// TestCompactionCutoverCrash injects failures at each stage of the
// compaction cutover — the next-epoch WAL sidecar write, the generation
// prepare, the generation cutover, and the manifest commit — and asserts
// that the WAL-acknowledged inserts and deletes survive a cold re-attach
// of the directory exactly as the in-memory twin holds them: the cutover
// either happened completely or not at all, and neither outcome loses an
// append or resurrects a deleted row.
func TestCompactionCutoverCrash(t *testing.T) {
	for _, stage := range []string{"wal-prepare-next", "compact-prepare", "compact-cutover", "manifest-commit"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			mem, err := Generate(Config{SF: 0.002})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			saveAll(t, mem, dir)
			disk, store := attachAll(t, dir, 8)
			tw := twinDBs{mem: mem, disk: disk}
			tmpl := lastRowTemplate(t, mem, "lineitem")

			lt, err := mem.Table("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			tw.each(t, func(db *core.Database) error {
				for i := 0; i < 200; i++ {
					if _, err := db.Insert("lineitem", tmpl); err != nil {
						return err
					}
				}
				return nil
			})
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 60; i++ {
				id := int32(rng.Intn(lt.N))
				tw.each(t, func(db *core.Database) error { return db.Delete("lineitem", id) })
			}

			boom := errors.New("injected cutover failure")
			store.FaultHook = func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			if err := disk.Reorganize("lineitem"); !errors.Is(err, boom) {
				t.Fatalf("Reorganize at stage %s: err=%v, want injected failure", stage, err)
			}
			store.FaultHook = nil

			// The crash: re-attach the directory exactly as the failed
			// cutover left it. Replay must restore every acknowledged write
			// on top of whichever generation the manifest committed.
			restarted, _ := attachAll(t, dir, 8)
			memDS, _ := mem.Delta("lineitem")
			reDS, _ := restarted.Delta("lineitem")
			if memDS.NumRows() != reDS.NumRows() {
				t.Fatalf("after crash at %s: %d rows, want %d", stage, reDS.NumRows(), memDS.NumRows())
			}
			for _, q := range []int{1, 6} {
				plan, err := Query(q, 0.002)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.Run(mem, plan, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []int{1, 2} {
					opts := core.DefaultOptions()
					opts.Parallelism = p
					got, err := core.Run(restarted, plan, opts)
					if err != nil {
						t.Fatalf("Q%d p=%d after crash at %s: %v", q, p, stage, err)
					}
					sameRowMultisets(t, fmt.Sprintf("crash at %s Q%d p=%d", stage, q, p), want, got)
				}
			}
		})
	}
}

// TestCompactionAppendRace races compaction cutovers against concurrent
// WAL-logged appends and queries: generation swaps must serialize against
// AppendTable so no acknowledged insert is lost and no deleted row comes
// back. Between the two race phases — with maintenance quiescent, exactly
// as a crash would leave the directory — a cold re-attach must see every
// acknowledged row on whichever generation the manifest committed.
func TestCompactionAppendRace(t *testing.T) {
	mem, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}
	tmpl := lastRowTemplate(t, mem, "lineitem")

	// Deletes happen up front, on aligned row ids, and are made durable so
	// every later committed generation must carry them.
	lt, err := mem.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < lt.N/10; i++ {
		id := int32(rng.Intn(lt.N))
		tw.each(t, func(db *core.Database) error { return db.Delete("lineitem", id) })
	}
	if done, err := disk.Checkpoint("lineitem"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}

	// Each phase races a batch of group-fsynced inserts against a fixed
	// number of full-table cutovers. The cycle count is bounded (rather
	// than looping until the writer finishes) because Reorganize holds the
	// table's write lock for the whole rewrite: an unbounded loop starves
	// the writer to the few-ms gaps between cutovers and the race never
	// converges on a small host.
	const perPhase = 200
	const totalInserts = 2 * perPhase
	var compactions int64
	runPhase := func(label string, cycles int) {
		t.Helper()
		var wg sync.WaitGroup
		var werr, cerr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perPhase; i++ {
				if _, err := disk.Insert("lineitem", tmpl); err != nil {
					werr = err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				// A short pause lets the writer get WAL appends into
				// flight so the cutover has a live tail to relog.
				time.Sleep(time.Millisecond)
				if err := disk.Reorganize("lineitem"); err != nil {
					cerr = err
					return
				}
				atomic.AddInt64(&compactions, 1)
			}
		}()
		wg.Wait()
		if werr != nil {
			t.Fatalf("%s writer: %v", label, werr)
		}
		if cerr != nil {
			t.Fatalf("%s compactor: %v", label, cerr)
		}
	}

	runPhase("phase 1", 2)

	// Quiescent midpoint: both goroutines joined, so the directory is
	// exactly what a crash here would leave behind. A cold attach (a
	// second store; the primary keeps running afterwards) must replay to
	// precisely the acknowledged state. The attach happens only at a
	// quiescent point because opening a store adopts or removes rotation
	// sidecars — over a live mid-cutover directory that would corrupt the
	// primary's handshake.
	midway, _ := attachAll(t, dir, 8)
	memDS0, _ := mem.Delta("lineitem")
	midDS, _ := midway.Delta("lineitem")
	if want := memDS0.NumRows() + perPhase; midDS.NumRows() != want {
		t.Fatalf("midpoint attach: %d rows, want %d", midDS.NumRows(), want)
	}
	if plan, err := Query(6, 0.002); err != nil {
		t.Fatal(err)
	} else if _, err := core.Run(midway, plan, core.DefaultOptions()); err != nil {
		t.Fatalf("midpoint attach Q6: %v", err)
	}

	runPhase("phase 2", 2)
	if atomic.LoadInt64(&compactions) != 4 {
		t.Fatalf("expected 4 compactions, got %d", compactions)
	}
	// Catch up the in-memory twin (insert order does not matter: the rows
	// are identical copies) and compare everything, live and restarted.
	tw.each(t, func(db *core.Database) error {
		if db == disk {
			return nil
		}
		for i := 0; i < totalInserts; i++ {
			if _, err := db.Insert("lineitem", tmpl); err != nil {
				return err
			}
		}
		return nil
	})
	if done, err := disk.Checkpoint("lineitem"); err != nil || !done {
		t.Fatalf("final checkpoint: done=%v err=%v", done, err)
	}
	memDS, _ := mem.Delta("lineitem")
	diskDS, _ := disk.Delta("lineitem")
	if memDS.NumRows() != diskDS.NumRows() {
		t.Fatalf("after race: disk %d rows, mem %d", diskDS.NumRows(), memDS.NumRows())
	}
	restarted, _ := attachAll(t, dir, 8)
	reDS, _ := restarted.Delta("lineitem")
	if memDS.NumRows() != reDS.NumRows() {
		t.Fatalf("after restart: %d rows, want %d", reDS.NumRows(), memDS.NumRows())
	}
	for _, q := range []int{1, 6} {
		plan, err := Query(q, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(mem, plan, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			got, err := core.Run(restarted, plan, opts)
			if err != nil {
				t.Fatalf("Q%d p=%d: %v", q, p, err)
			}
			sameRowMultisets(t, fmt.Sprintf("race Q%d p=%d", q, p), want, got)
		}
	}
}

// TestUpdateRecoveryWithCompaction reruns the randomized update/recovery
// differential with the background compactor absorbing the disk twin's
// insert delta concurrently (checkpoint-only thresholds: incremental
// checkpoints preserve row ids, so the twins' id spaces stay aligned while
// maintenance races the stream). Mid-stream the directory is cold
// re-attached while the compactor may be in flight; at the end the usual
// restart must answer all 22 queries at parallelism 1, 2 and 8 exactly
// like the in-memory twin.
func TestUpdateRecoveryWithCompaction(t *testing.T) {
	mem, err := Generate(Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}
	compOpts := core.CompactorOptions{
		Interval:     2 * time.Millisecond,
		MinDeltaRows: 64,
		// Never compact: Reorganize moves row ids, which would desync the
		// twins' delete targets mid-stream. Reorganize races are covered by
		// TestCompactionAppendRace and TestReorganizeJoinIndices.
		DeleteFraction: 2,
	}
	comp := core.StartCompactor(disk, compOpts)
	defer func() { comp.Stop() }()
	var earlierRuns int64

	templates := map[string][]any{}
	for _, name := range mutTables {
		templates[name] = lastRowTemplate(t, mem, name)
	}
	rng := rand.New(rand.NewSource(20260808))
	for step := 0; step < 40; step++ {
		table := mutTables[rng.Intn(len(mutTables))]
		switch k := rng.Intn(10); {
		case k < 5: // insert a small batch of last-row copies
			n := 1 + rng.Intn(40)
			tw.each(t, func(db *core.Database) error {
				for i := 0; i < n; i++ {
					if _, err := db.Insert(table, templates[table]); err != nil {
						return err
					}
				}
				return nil
			})
		case k < 7: // delete a random row; ids stay aligned (no Reorganize)
			memDS, err := mem.Delta(table)
			if err != nil {
				t.Fatal(err)
			}
			space := memDS.Table().N + memDS.NumDeltaRows()
			id := int32(rng.Intn(space))
			tw.each(t, func(db *core.Database) error { return db.Delete(table, id) })
		case k < 8: // explicit checkpoint racing the background one
			tw.each(t, func(db *core.Database) error {
				done, err := db.Checkpoint(table)
				if err == nil && !done {
					return fmt.Errorf("checkpoint of %s declined", table)
				}
				return err
			})
		default: // differential query check
			q := []int{1, 6}[rng.Intn(2)]
			plan, err := Query(q, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(mem, plan, core.DefaultOptions())
			if err != nil {
				t.Fatalf("step %d mem Q%d: %v", step, q, err)
			}
			for _, p := range []int{1, 2} {
				opts := core.DefaultOptions()
				opts.Parallelism = p
				got, err := core.Run(disk, plan, opts)
				if err != nil {
					t.Fatalf("step %d disk Q%d p=%d: %v", step, q, p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("step %d Q%d p=%d", step, q, p), want, got)
			}
		}
		if step == 20 {
			// Cold re-attach mid-stream: the committed manifest plus WAL
			// replay must reconstruct every acknowledged write no matter
			// how many background checkpoints have already absorbed parts
			// of the stream. The compactor is paused (Stop waits out any
			// in-flight run) because opening a second store adopts or
			// removes rotation sidecars — over a live mid-rotation
			// directory that would corrupt the primary's handshake.
			comp.Stop()
			if st := comp.Status(); st.LastError != nil {
				t.Fatalf("compactor before mid-stream attach: %d errors, last: %v", st.Errors, st.LastError)
			}
			earlierRuns = comp.Status().Runs
			midway, _ := attachAll(t, dir, 8)
			memDS, _ := mem.Delta("lineitem")
			midDS, _ := midway.Delta("lineitem")
			if memDS.NumRows() != midDS.NumRows() {
				t.Fatalf("mid-stream attach: %d lineitem rows, want %d", midDS.NumRows(), memDS.NumRows())
			}
			if plan, err := Query(6, 0.01); err != nil {
				t.Fatal(err)
			} else if _, err := core.Run(midway, plan, core.DefaultOptions()); err != nil {
				t.Fatalf("mid-stream attach Q6: %v", err)
			}
			comp = core.StartCompactor(disk, compOpts)
		}
	}
	comp.Stop()
	if st := comp.Status(); st.LastError != nil {
		t.Fatalf("compactor: %d errors, last: %v", st.Errors, st.LastError)
	}
	if earlierRuns+comp.Status().Runs == 0 {
		t.Fatal("background compactor never ran; lower MinDeltaRows")
	}
	for _, name := range mutTables {
		tw.each(t, func(db *core.Database) error {
			done, err := db.Checkpoint(name)
			if err == nil && !done {
				return fmt.Errorf("final checkpoint of %s declined", name)
			}
			return err
		})
	}
	for _, name := range mutTables {
		memDS, _ := mem.Delta(name)
		diskDS, _ := disk.Delta(name)
		if memDS.NumRows() != diskDS.NumRows() || memDS.NumDeltaRows() != 0 || diskDS.NumDeltaRows() != 0 {
			t.Fatalf("%s: mem %d rows (%d delta), disk %d rows (%d delta)", name,
				memDS.NumRows(), memDS.NumDeltaRows(), diskDS.NumRows(), diskDS.NumDeltaRows())
		}
	}

	restarted, _ := attachAll(t, dir, 8)
	for q := 1; q <= NumQueries; q++ {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			plan, err := Query(q, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(mem, plan, core.DefaultOptions())
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			for _, p := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Parallelism = p
				got, err := core.Run(restarted, plan, opts)
				if err != nil {
					t.Fatalf("restarted p=%d: %v", p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("compaction restart Q%d p=%d", q, p), want, got)
			}
		})
	}
}
