package tpch

import (
	"errors"
	"fmt"
	"testing"

	"x100/internal/columnbm"
	"x100/internal/core"
)

// walRecoverySF keeps the crash-injection differential fast while still
// spanning several chunks per column (diskChunkRows = 1000).
const walRecoverySF = 0.005

// saveAll persists every base table of an in-memory database into dir.
func saveAll(t *testing.T, mem *core.Database, dir string) {
	t.Helper()
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
}

// sameTwinState asserts the restarted disk database agrees with the
// in-memory twin on row counts, delta sizes, deletions, and the Q1/Q6
// results.
func sameTwinState(t *testing.T, label string, mem, disk *core.Database) {
	t.Helper()
	for _, name := range mutTables {
		memDS, err := mem.Delta(name)
		if err != nil {
			t.Fatal(err)
		}
		diskDS, err := disk.Delta(name)
		if err != nil {
			t.Fatal(err)
		}
		if memDS.NumRows() != diskDS.NumRows() {
			t.Fatalf("%s: %s has %d rows, twin has %d", label, name, diskDS.NumRows(), memDS.NumRows())
		}
		if memDS.NumDeltaRows() != diskDS.NumDeltaRows() {
			t.Fatalf("%s: %s has %d delta rows, twin has %d", label, name, diskDS.NumDeltaRows(), memDS.NumDeltaRows())
		}
		if memDS.NumDeleted() != diskDS.NumDeleted() {
			t.Fatalf("%s: %s has %d deletions, twin has %d", label, name, diskDS.NumDeleted(), memDS.NumDeleted())
		}
	}
	for _, q := range []int{1, 6} {
		plan, err := Query(q, walRecoverySF)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(mem, plan, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s mem Q%d: %v", label, q, err)
		}
		got, err := core.Run(disk, plan, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s disk Q%d: %v", label, q, err)
		}
		sameRowMultisets(t, fmt.Sprintf("%s Q%d", label, q), want, got)
	}
}

// TestWALCrashRecoveryAppendSync injects faults at the WAL append and sync
// stages: the failed operation must report an error, must not be applied,
// and must not survive a restart — while every operation acknowledged
// before and after the fault must. The in-memory twin receives exactly the
// acknowledged operations, so restart state must match it bit for bit.
func TestWALCrashRecoveryAppendSync(t *testing.T) {
	for _, stage := range []string{"wal-append", "wal-sync"} {
		t.Run(stage, func(t *testing.T) {
			mem, err := Generate(Config{SF: walRecoverySF})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			saveAll(t, mem, dir)
			disk, store := attachAll(t, dir, 8)
			tw := twinDBs{mem: mem, disk: disk}

			templates := map[string][]any{}
			for _, name := range mutTables {
				templates[name] = lastRowTemplate(t, mem, name)
			}

			// Committed prefix: inserts, a delete, an update — on both twins.
			ids := map[string][]int32{}
			for _, name := range mutTables {
				for i := 0; i < 8; i++ {
					var id int32
					tw.each(t, func(db *core.Database) error {
						var err error
						id, err = db.Insert(name, templates[name])
						return err
					})
					ids[name] = append(ids[name], id)
				}
			}
			tw.each(t, func(db *core.Database) error { return db.Delete("lineitem", ids["lineitem"][0]) })
			tw.each(t, func(db *core.Database) error {
				_, err := db.Update("orders", ids["orders"][1], templates["orders"])
				return err
			})

			// Crash window: the WAL stage fails. The disk side must error on
			// every operation kind, and the twin is NOT updated.
			boom := errors.New("injected crash")
			store.FaultHook = func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			if _, err := disk.Insert("lineitem", templates["lineitem"]); !errors.Is(err, boom) {
				t.Fatalf("insert during %s fault: err = %v", stage, err)
			}
			if err := disk.Delete("lineitem", ids["lineitem"][1]); !errors.Is(err, boom) {
				t.Fatalf("delete during %s fault: err = %v", stage, err)
			}
			if _, err := disk.Update("orders", ids["orders"][0], templates["orders"]); !errors.Is(err, boom) {
				t.Fatalf("update during %s fault: err = %v", stage, err)
			}
			store.FaultHook = nil

			// The failed operations must not even be applied in memory.
			sameTwinState(t, "post-fault", mem, disk)

			// Committed suffix after the fault clears.
			for _, name := range mutTables {
				tw.each(t, func(db *core.Database) error {
					_, err := db.Insert(name, templates[name])
					return err
				})
			}

			// Restart: replay must recover exactly the acknowledged state.
			restarted, _ := attachAll(t, dir, 8)
			sameTwinState(t, "restart", mem, restarted)
			for _, ws := range restarted.WalStatuses() {
				if ws.Table == "lineitem" && ws.Wal.Replayed == 0 {
					t.Fatalf("restart replayed nothing for lineitem: %+v", ws.Wal)
				}
			}
		})
	}
}

// TestWALCrashRecoveryRotate injects faults at the two checkpoint rotation
// stages. The manifest commits before the rotation, so the checkpoint
// reports an error but the rows are durable in the chunks; the restart must
// discard the superseded log (stale epoch) instead of replaying it twice.
func TestWALCrashRecoveryRotate(t *testing.T) {
	for _, stage := range []string{"wal-rotate", "wal-truncate"} {
		t.Run(stage, func(t *testing.T) {
			mem, err := Generate(Config{SF: walRecoverySF})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			saveAll(t, mem, dir)
			disk, store := attachAll(t, dir, 8)
			tw := twinDBs{mem: mem, disk: disk}

			template := lastRowTemplate(t, mem, "lineitem")
			for i := 0; i < 10; i++ {
				tw.each(t, func(db *core.Database) error {
					_, err := db.Insert("lineitem", template)
					return err
				})
			}

			boom := errors.New("injected crash")
			store.FaultHook = func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			if _, err := disk.Checkpoint("lineitem"); !errors.Is(err, boom) {
				t.Fatalf("checkpoint during %s fault: err = %v", stage, err)
			}
			store.FaultHook = nil
			// The twin checkpoints cleanly: the disk-side write-back itself
			// committed (manifest renamed) before the rotation crashed.
			if done, err := mem.Checkpoint("lineitem"); err != nil || !done {
				t.Fatalf("twin checkpoint: done=%v err=%v", done, err)
			}

			restarted, _ := attachAll(t, dir, 8)
			sameTwinState(t, "restart", mem, restarted)
			if stage == "wal-rotate" {
				// The rename never happened: the stale-epoch main log is
				// superseded by the prepared next-epoch sidecar, which the
				// attach adopts as the log. Nothing is replayed twice.
				found := false
				for _, ws := range restarted.WalStatuses() {
					if ws.Table == "lineitem" {
						found = true
						if ws.Wal.StaleDiscards != 0 || ws.Wal.Replayed != 0 {
							t.Fatalf("prepared log not adopted cleanly: %+v", ws.Wal)
						}
					}
				}
				if !found {
					t.Fatal("no WAL status for lineitem")
				}
			}
		})
	}
}

// TestWALCrashRecoveryReplay injects a fault at the replay stage: the
// attach itself must fail (recovery could not run), and a retry without the
// fault must succeed and recover every logged record.
func TestWALCrashRecoveryReplay(t *testing.T) {
	mem, err := Generate(Config{SF: walRecoverySF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveAll(t, mem, dir)
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}

	template := lastRowTemplate(t, mem, "lineitem")
	for i := 0; i < 5; i++ {
		tw.each(t, func(db *core.Database) error {
			_, err := db.Insert("lineitem", template)
			return err
		})
	}

	boom := errors.New("injected crash")
	store, err := columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	store.FaultHook = func(s string) error {
		if s == "wal-replay" {
			return boom
		}
		return nil
	}
	failed := core.NewDatabase()
	if _, err := core.AttachDiskTable(failed, store, "lineitem"); !errors.Is(err, boom) {
		t.Fatalf("attach during wal-replay fault: err = %v", err)
	}
	store.FaultHook = nil

	restarted, _ := attachAll(t, dir, 8)
	sameTwinState(t, "retry", mem, restarted)
}

// TestDurabilityModes ingests single-row inserts into a disk-attached
// lineitem under each durability mode and runs Q1 over the unmerged
// delta, which must match the in-memory twin. Group commit fsyncs the log
// before each insert returns, async logs without an fsync, and checkpoint
// mode keeps no log. A re-attach then finds the rows of both logged modes
// (the log is written before Insert returns; only its fsync is deferred)
// and none of the checkpoint mode's.
func TestDurabilityModes(t *testing.T) {
	mem, err := Generate(Config{SF: walRecoverySF})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := Query(1, walRecoverySF)
	if err != nil {
		t.Fatal(err)
	}
	before, err := core.Run(mem, q1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	tmpl := lastRowTemplate(t, mem, "lineitem")
	for i := 0; i < n; i++ {
		if _, err := mem.Insert("lineitem", tmpl); err != nil {
			t.Fatal(err)
		}
	}
	after, err := core.Run(mem, q1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lt, err := mem.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	attach := func(dir string, mode core.Durability) *core.Database {
		t.Helper()
		store, err := columnbm.NewStore(dir, diskChunkRows, 8)
		if err != nil {
			t.Fatal(err)
		}
		db := core.NewDatabase()
		db.SetDurability(mode)
		if _, err := core.AttachDiskTable(db, store, "lineitem"); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, m := range []struct {
		name   string
		mode   core.Durability
		logged bool
	}{
		{"group", core.DurabilityGroup, true},
		{"async", core.DurabilityAsync, true},
		{"checkpoint", core.DurabilityCheckpoint, false},
	} {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := wstore.SaveTable(lt); err != nil {
				t.Fatal(err)
			}
			disk := attach(dir, m.mode)
			for i := 0; i < n; i++ {
				if _, err := disk.Insert("lineitem", tmpl); err != nil {
					t.Fatal(err)
				}
			}
			got, err := core.Run(disk, q1, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sameRowMultisets(t, m.name+" pending", after, got)
			wal := disk.WalStatuses()[0].Wal
			switch m.mode {
			case core.DurabilityGroup:
				if wal.Appends != n || wal.Syncs == 0 {
					t.Fatalf("group: %d appends, %d syncs; want %d appends and fsyncs", wal.Appends, wal.Syncs, n)
				}
			case core.DurabilityAsync:
				if wal.Appends != n || wal.Syncs != 0 {
					t.Fatalf("async: %d appends, %d syncs; want %d appends and no fsync", wal.Appends, wal.Syncs, n)
				}
			default:
				if wal.Appends != 0 {
					t.Fatalf("checkpoint: %d log appends, want none", wal.Appends)
				}
			}
			want := before
			if m.logged {
				want = after
			}
			if got, err = core.Run(attach(dir, m.mode), q1, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			sameRowMultisets(t, m.name+" re-attached", want, got)
		})
	}
}
