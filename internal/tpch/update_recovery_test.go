package tpch

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/mil"
	"x100/internal/vector"
)

// mutTables are the tables the update/recovery differential mutates.
var mutTables = []string{"lineitem", "orders"}

// attachAll persists nothing itself: it attaches every base table of an
// existing directory into a fresh database and registers the join indices
// as AttachDisk does.
func attachAll(t *testing.T, dir string, poolChunks int) (*core.Database, *columnbm.Store) {
	t.Helper()
	store, err := columnbm.NewStore(dir, diskChunkRows, poolChunks)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase()
	for _, name := range baseTables {
		if _, err := core.AttachDiskTable(db, store, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := RegisterJoinIndices(db); err != nil {
		t.Fatal(err)
	}
	return db, store
}

// lastRowTemplate captures the boxed logical values of a table's last row —
// the insert template: appending copies of the last row keeps clustered
// columns (dates, join-index row ids) clustered, so every index stays
// valid.
func lastRowTemplate(t *testing.T, db *core.Database, table string) []any {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(tab.Cols))
	for i, c := range tab.Cols {
		row[i] = c.DecodedValue(tab.N - 1)
	}
	return row
}

// applyOp applies one mutation step identically to both databases.
type twinDBs struct {
	mem, disk *core.Database
}

func (tw twinDBs) each(t *testing.T, fn func(db *core.Database) error) {
	t.Helper()
	if err := fn(tw.mem); err != nil {
		t.Fatal("mem:", err)
	}
	if err := fn(tw.disk); err != nil {
		t.Fatal("disk:", err)
	}
}

// TestUpdateRecoveryDifferential is the durable-update lockdown: a
// randomized insert/delete/checkpoint/query interleaving runs identically
// against a disk-attached database and its in-memory twin; mid-stream
// queries must agree at parallelism 1, 2 and 8 while inserts and deletions
// are pending (partitioned scans read the insert tail as one more morsel),
// and no query may write: the manifests' gen and chunk_counts stay put, the
// store's write stages never fire and the deltas stay pending. The
// directory is then re-attached cold — a process restart — and all 22
// TPC-H queries must return results identical to the in-memory twin at
// parallelism 1, 2 and 8: every checkpointed insert and deletion survived,
// nothing else did (there is nothing else: the interleaving ends with a
// checkpoint).
func TestUpdateRecoveryDifferential(t *testing.T) {
	mem, err := Generate(Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range baseTables {
		tab, err := mem.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wstore.SaveTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	disk, store := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}
	// writes counts the store's write stages (chunk, manifest, WAL); only
	// the explicit checkpoints of the interleaving may move it.
	var writes atomic.Int64
	store.FaultHook = func(stage string) error {
		if stage != "read-chunk" {
			writes.Add(1)
		}
		return nil
	}
	type diskState struct {
		gen           int
		chunks        string
		delta, delete int
	}
	state := func() map[string]diskState {
		out := map[string]diskState{}
		for _, name := range mutTables {
			m, err := store.ReadManifest(name)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := disk.Delta(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = diskState{m.Gen, fmt.Sprint(m.ChunkCounts), ds.NumDeltaRows(), ds.NumDeleted()}
		}
		return out
	}
	pendingQueries := 0

	templates := map[string][]any{}
	for _, name := range mutTables {
		templates[name] = lastRowTemplate(t, mem, name)
	}
	checkQueries := []int{1, 6}
	rng := rand.New(rand.NewSource(20260727))
	checkpoints := 0
	for step := 0; step < 60; step++ {
		table := mutTables[rng.Intn(len(mutTables))]
		switch k := rng.Intn(10); {
		case k < 5: // insert a small batch of last-row copies
			n := 1 + rng.Intn(40)
			tw.each(t, func(db *core.Database) error {
				ds, err := db.Delta(table)
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if _, err := ds.Insert(templates[table]); err != nil {
						return err
					}
				}
				return nil
			})
		case k < 7: // delete a random row (base or delta space)
			memDS, err := mem.Delta(table)
			if err != nil {
				t.Fatal(err)
			}
			space := memDS.Table().N + memDS.NumDeltaRows()
			id := int32(rng.Intn(space))
			tw.each(t, func(db *core.Database) error {
				ds, err := db.Delta(table)
				if err != nil {
					return err
				}
				return ds.Delete(id)
			})
		case k < 8: // explicit checkpoint: durable on the disk side
			checkpoints++
			tw.each(t, func(db *core.Database) error {
				done, err := db.Checkpoint(table)
				if err == nil && !done {
					return fmt.Errorf("checkpoint of %s declined", table)
				}
				return err
			})
		default: // differential query check, serial and parallel
			q := checkQueries[rng.Intn(len(checkQueries))]
			plan, err := Query(q, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(mem, plan, core.DefaultOptions())
			if err != nil {
				t.Fatalf("step %d mem Q%d: %v", step, q, err)
			}
			before, w0 := state(), writes.Load()
			if st := before["lineitem"]; st.delta > 0 && st.delete > 0 {
				pendingQueries++
			}
			for _, p := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Parallelism = p
				got, err := core.Run(disk, plan, opts)
				if err != nil {
					t.Fatalf("step %d disk Q%d p=%d: %v", step, q, p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("step %d Q%d p=%d", step, q, p), want, got)
			}
			if after := state(); fmt.Sprint(after) != fmt.Sprint(before) || writes.Load() != w0 {
				t.Fatalf("step %d Q%d wrote: %d write stages, state %v -> %v", step, q, writes.Load()-w0, before, after)
			}
		}
	}
	if checkpoints == 0 {
		t.Fatal("interleaving never checkpointed; adjust the seed")
	}
	if pendingQueries == 0 {
		t.Fatal("no query ran over pending inserts and deletions; adjust the seed")
	}
	t.Logf("%d of the mid-stream query checks ran over pending inserts and deletions", pendingQueries)
	// Commit everything: the final checkpoints define the durable state.
	for _, name := range mutTables {
		tw.each(t, func(db *core.Database) error {
			done, err := db.Checkpoint(name)
			if err == nil && !done {
				return fmt.Errorf("final checkpoint of %s declined", name)
			}
			return err
		})
	}
	// Both twins must agree on shape before the restart.
	for _, name := range mutTables {
		memDS, _ := mem.Delta(name)
		diskDS, _ := disk.Delta(name)
		if memDS.NumRows() != diskDS.NumRows() || memDS.NumDeltaRows() != 0 || diskDS.NumDeltaRows() != 0 {
			t.Fatalf("%s: mem %d rows (%d delta), disk %d rows (%d delta)", name,
				memDS.NumRows(), memDS.NumDeltaRows(), diskDS.NumRows(), diskDS.NumDeltaRows())
		}
	}
	// "Restart": a cold store over the same directory, fresh database,
	// fresh (small) buffer pool. The attach must recover every
	// checkpointed row and deletion from the manifest alone.
	restarted, _ := attachAll(t, dir, 8)
	for _, name := range mutTables {
		memDS, _ := mem.Delta(name)
		reDS, _ := restarted.Delta(name)
		if memDS.NumRows() != reDS.NumRows() {
			t.Fatalf("%s after restart: %d rows, want %d", name, reDS.NumRows(), memDS.NumRows())
		}
		if memDS.NumDeleted() != reDS.NumDeleted() {
			t.Fatalf("%s after restart: %d deletions recovered, want %d", name, reDS.NumDeleted(), memDS.NumDeleted())
		}
	}
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
				sameRowMultisets(t, fmt.Sprintf("restart Q%d p=%d", q, p), want, got)
			}
		})
	}
}

// TestReadOnlyAttachCheckpointNoop asserts the fix for implicit
// checkpoints: on a freshly attached (read-only: no pending deltas) disk
// table, parallel queries — which checkpoint scanned tables implicitly —
// and explicit Checkpoint calls are no-ops that never touch the directory.
func TestReadOnlyAttachCheckpointNoop(t *testing.T) {
	mem, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range baseTables {
		tab, err := mem.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wstore.SaveTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() map[string]int64 {
		out := map[string]int64{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = fi.Size()
		}
		return out
	}
	before := snapshot()

	disk, store := attachAll(t, dir, 8)
	// Any write attempt through the store trips the fault hook and fails
	// the test immediately, pinpointing the offender. The read-chunk
	// stage is the one read-path hook: scans are expected to fire it.
	store.FaultHook = func(stage string) error {
		if stage == "read-chunk" {
			return nil
		}
		t.Errorf("read-only attach wrote to the directory (stage %s)", stage)
		return nil
	}
	for _, q := range []int{1, 6} {
		plan, err := Query(q, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			if _, err := core.Run(disk, plan, opts); err != nil {
				t.Fatalf("Q%d p=%d: %v", q, p, err)
			}
		}
	}
	for _, name := range baseTables {
		done, err := disk.Checkpoint(name)
		if err != nil || !done {
			t.Fatalf("checkpoint %s: done=%v err=%v", name, done, err)
		}
	}
	after := snapshot()
	if len(before) != len(after) {
		t.Fatalf("directory changed: %d files, was %d", len(after), len(before))
	}
	for name, size := range before {
		if after[name] != size {
			t.Fatalf("file %s changed size %d -> %d", name, size, after[name])
		}
	}
	// Sanity: the manifest files still say what they said.
	for _, name := range baseTables {
		if _, err := os.Stat(filepath.Join(dir, name+".manifest.json")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaScanBoundaryShapes generates the edge shapes of the scan over
// base + deletion list + insert tail instead of remembering a few: vector
// sizes {1, 7, 1024, chunkRows-1, chunkRows+1} × insert-tail lengths {0, 1,
// batch-1, batch+1} × deletions on/off, where the deletions hit the first
// and last row of a base batch, of a chunk fragment and of the tail. Each
// shape runs a grouped aggregate and a code-domain select with chunk
// pruning at parallelism 1, 2 and 8 over a disk-attached table with the
// delta pending, against the MIL engine over a reorganized in-memory twin.
// At vector sizes {1, 7, 1024} it also fetches from the table with its
// delta pending: a Fetch1Join whose row ids hit base, tail and deleted rows
// in scrambled order (the deleted targets drop), against the same plan over
// an in-memory twin checkpointed in place (which keeps row ids).
func TestDeltaScanBoundaryShapes(t *testing.T) {
	const chunkRows = 64
	const baseN = 3*chunkRows + 5 // three full chunks and a short fourth
	keys := make([]int64, baseN)
	vals := make([]float64, baseN)
	tags := make([]string, baseN)
	for i := range keys {
		keys[i], vals[i], tags[i] = int64(i), float64(i%13), []string{"a", "b", "c"}[i%3]
	}
	newTable := func() *colstore.Table {
		tab := colstore.NewTable("ev")
		for _, err := range []error{
			tab.AddColumn("k", vector.Int64, slices.Clone(keys)),
			tab.AddColumn("v", vector.Float64, slices.Clone(vals)),
			tab.AddColumn("tag", vector.String, slices.Clone(tags)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	store, err := columnbm.NewStore(t.TempDir(), chunkRows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(newTable()); err != nil {
		t.Fatal(err)
	}
	plans := map[string]string{
		"aggr":   `Aggr(Scan(ev), [tag], [n = count(), s = sum(v), mk = max(k)])`,
		"select": fmt.Sprintf(`Select(Scan(ev, [k, tag, v]), and(==(tag, 'b'), >=(k, %d)))`, chunkRows+3),
	}
	fetchPlan, err := algebra.Parse(`Fetch1Join(Select(Scan(ref), !=(f, 1)), ev, rid, [k, tag])`)
	if err != nil {
		t.Fatal(err)
	}
	// addFetchSource gives db the table that fetches from ev's total rows:
	// ref.rid visits every row id in a scrambled order.
	addFetchSource := func(db *core.Database, total int) {
		rids := make([]int32, total)
		fs := make([]int64, total)
		for j := range rids {
			rids[j], fs[j] = int32(j*37%total), int64(j%3)
		}
		ref := colstore.NewTable("ref")
		if err := ref.AddColumn("rid", vector.Int32, rids); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddColumn("f", vector.Int64, fs); err != nil {
			t.Fatal(err)
		}
		db.AddTable(ref)
	}
	for _, vs := range []int{1, 7, 1024, chunkRows - 1, chunkRows + 1} {
		for _, nIns := range []int{0, 1, vs - 1, vs + 1} {
			for _, withDel := range []bool{false, true} {
				label := fmt.Sprintf("vs=%d ins=%d del=%v", vs, nIns, withDel)
				disk := core.NewDatabase()
				if _, err := core.AttachDiskTable(disk, store, "ev"); err != nil {
					t.Fatal(err)
				}
				twin := core.NewDatabase()
				twin.AddTable(newTable())
				fetchTwin := core.NewDatabase()
				fetchTwin.AddTable(newTable())
				var dels []int32
				if withDel {
					firstBatch := min(vs, chunkRows)
					dels = []int32{0, int32(firstBatch - 1), chunkRows, 2*chunkRows - 1}
					if nIns > 0 {
						dels = append(dels, baseN, int32(baseN+nIns-1))
					}
				}
				for _, db := range []*core.Database{disk, twin, fetchTwin} {
					ds, err := db.Delta("ev")
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < nIns; i++ {
						tag := []string{"b", "new"}[i%2] // "new" is in no dictionary
						if _, err := ds.Insert([]any{int64(baseN + i), float64(i % 5), tag}); err != nil {
							t.Fatal(err)
						}
					}
					for _, id := range dels {
						if err := ds.Delete(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := twin.Reorganize("ev"); err != nil {
					t.Fatal(err)
				}
				if done, err := fetchTwin.Checkpoint("ev"); err != nil || !done {
					t.Fatalf("%s: checkpoint twin: done=%v err=%v", label, done, err)
				}
				for name, src := range plans {
					plan, err := algebra.Parse(src)
					if err != nil {
						t.Fatal(err)
					}
					want, err := mil.New(twin).Run(plan)
					if err != nil {
						t.Fatalf("%s %s: mil: %v", label, name, err)
					}
					for _, p := range []int{1, 2, 8} {
						opts := core.DefaultOptions()
						opts.BatchSize, opts.Parallelism = vs, p
						got, err := core.Run(disk, plan, opts)
						if err != nil {
							t.Fatalf("%s %s p=%d: %v", label, name, p, err)
						}
						sameRowMultisets(t, fmt.Sprintf("%s %s p=%d", label, name, p), want, got)
					}
				}
				if !slices.Contains([]int{1, 7, 1024}, vs) {
					continue
				}
				addFetchSource(disk, baseN+nIns)
				addFetchSource(fetchTwin, baseN+nIns)
				want, err := core.Run(fetchTwin, fetchPlan, core.DefaultOptions())
				if err != nil {
					t.Fatalf("%s fetch1: twin: %v", label, err)
				}
				// Fetch1Join is an inner join: a ref row whose target is
				// deleted drops.
				total, live := baseN+nIns, 0
				for j := range total {
					if j%3 != 1 && !slices.Contains(dels, int32(j*37%total)) {
						live++
					}
				}
				if want.NumRows() != live {
					t.Fatalf("%s fetch1: %d rows, want %d live targets", label, want.NumRows(), live)
				}
				for _, p := range []int{1, 2, 8} {
					opts := core.DefaultOptions()
					opts.BatchSize, opts.Parallelism = vs, p
					got, err := core.Run(disk, fetchPlan, opts)
					if err != nil {
						t.Fatalf("%s fetch1 p=%d: %v", label, p, err)
					}
					sameRowMultisets(t, fmt.Sprintf("%s fetch1 p=%d", label, p), want, got)
				}
			}
		}
	}
}
