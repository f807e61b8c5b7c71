package tpch

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/vector"
)

var baseTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// diskChunkRows is deliberately small and not a multiple of the vector
// size, so the differential test exercises many chunks per column, batch
// clamping at chunk boundaries, and buffer-pool eviction (the pool holds
// fewer chunks than one lineitem column has).
const diskChunkRows = 1000

var (
	diskDBOnce sync.Once
	diskDBVal  *core.Database
	diskDBErr  error
)

// getDiskDB persists the test database through a ColumnBM store and
// attaches it fragment-backed: queries below scan straight off compressed
// chunks.
func getDiskDB(t *testing.T) *core.Database {
	t.Helper()
	mem := getDB(t)
	diskDBOnce.Do(func() {
		dir := t.TempDir()
		wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
		if err != nil {
			diskDBErr = err
			return
		}
		for _, name := range baseTables {
			tab, err := mem.Table(name)
			if err != nil {
				diskDBErr = err
				return
			}
			if err := wstore.SaveTable(tab); err != nil {
				diskDBErr = err
				return
			}
		}
		// Attach through a fresh store so nothing is warm from writing; the
		// tiny pool (8 chunks) forces eviction during every lineitem scan.
		store, err := columnbm.NewStore(dir, diskChunkRows, 8)
		if err != nil {
			diskDBErr = err
			return
		}
		db := core.NewDatabase()
		for _, name := range baseTables {
			if _, err := core.AttachDiskTable(db, store, name); err != nil {
				diskDBErr = err
				return
			}
		}
		// Register the join indices as AttachDisk does.
		if err := RegisterJoinIndices(db); err != nil {
			diskDBErr = err
			return
		}
		diskDBVal = db
	})
	if diskDBErr != nil {
		t.Fatal(diskDBErr)
	}
	return diskDBVal
}

// sameRowMultisets compares results as row multisets: bit-exact when
// possible, else paired by non-float columns with relative tolerance on
// floats (parallel aggregation sums in a different order).
func sameRowMultisets(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, want %d", label, got.NumRows(), want.NumRows())
	}
	key := func(row []any, withFloats bool) string {
		s := ""
		for _, v := range row {
			if _, ok := v.(float64); ok && !withFloats {
				continue
			}
			s += fmt.Sprintf("|%v", v)
		}
		return s
	}
	exact := func(res *core.Result) []string {
		keys := make([]string, res.NumRows())
		for i := range keys {
			keys[i] = key(res.Row(i), true)
		}
		sort.Strings(keys)
		return keys
	}
	ew, eg := exact(want), exact(got)
	same := true
	for i := range ew {
		if ew[i] != eg[i] {
			same = false
			break
		}
	}
	if same {
		return
	}
	index := func(res *core.Result) map[string][]any {
		m := make(map[string][]any, res.NumRows())
		for i := 0; i < res.NumRows(); i++ {
			row := res.Row(i)
			k := key(row, false)
			if _, dup := m[k]; dup {
				t.Fatalf("%s: non-float key %q not unique; cannot pair rows", label, k)
			}
			m[k] = row
		}
		return m
	}
	mw, mg := index(want), index(got)
	for k, wrow := range mw {
		grow, ok := mg[k]
		if !ok {
			t.Fatalf("%s: row %q missing from disk result", label, k)
		}
		for c := range wrow {
			wf, wok := wrow[c].(float64)
			gf, gok := grow[c].(float64)
			if wok && gok {
				if diff := math.Abs(wf - gf); diff > 1e-9*math.Max(1, math.Abs(wf)) {
					t.Fatalf("%s: row %q col %d: %v != %v", label, k, c, gf, wf)
				}
				continue
			}
			if wrow[c] != grow[c] {
				t.Fatalf("%s: row %q col %d: %v != %v", label, k, c, grow[c], wrow[c])
			}
		}
	}
}

// TestDiskDifferential runs every TPC-H query against the disk-attached
// (ColumnBM fragment-backed) database at parallelism 1, 2 and 8 and
// requires results identical to the in-memory serial execution. The
// parallelism sweep also exercises chunk-aligned morsels: no two workers
// ever decompress the same chunk.
func TestDiskDifferential(t *testing.T) {
	mem := getDB(t)
	disk := getDiskDB(t)
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
				got, err := core.Run(disk, plan, opts)
				if err != nil {
					t.Fatalf("disk p=%d: %v", p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("Q%d p=%d", q, p), want, got)
			}
		})
	}
}

// stringHeavyDB builds a synthetic string-heavy table shaped to exercise
// every string codec — a low-cardinality mode column (dict), sorted
// shared-prefix names and dates-as-strings (prefix/dict), and random notes
// (raw) — persists it in 1000-row chunks, and returns the memory and
// disk-attached databases plus the store for codec inspection.
func stringHeavyDB(t *testing.T) (mem, disk *core.Database, store *columnbm.Store) {
	t.Helper()
	const n = 25000
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	mode := make([]string, n)
	name := make([]string, n)
	day := make([]string, n)
	note := make([]string, n)
	id := make([]int32, n)
	rng := uint64(42)
	for i := 0; i < n; i++ {
		id[i] = int32(i)
		mode[i] = modes[(i/3)%len(modes)]
		name[i] = fmt.Sprintf("Customer#%09d", i)
		day[i] = fmt.Sprintf("2024-%02d-%02d", 1+(i/70)/28%12, 1+(i/70)%28)
		// xorshift-ish noise, long enough that prefix coding's shorter
		// length headers stay below the profitability margin: raw chunks.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		note[i] = fmt.Sprintf("%016x%016x%016x", rng, rng*2654435761, ^rng)
	}
	tab := colstore.NewTable("strtab")
	for _, c := range []struct {
		name string
		data any
	}{
		{"id", id}, {"mode", mode}, {"name", name}, {"day", day}, {"note", note},
	} {
		typ := vector.String
		if c.name == "id" {
			typ = vector.Int32
		}
		if err := tab.AddColumn(c.name, typ, c.data); err != nil {
			t.Fatal(err)
		}
	}
	mem = core.NewDatabase()
	mem.AddTable(tab)

	dir := t.TempDir()
	wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := wstore.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	store, err = columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	disk = core.NewDatabase()
	if _, err := core.AttachDiskTable(disk, store, "strtab"); err != nil {
		t.Fatal(err)
	}
	return mem, disk, store
}

// TestStringHeavyDiskDifferential runs string-touching queries (string
// equality and range selections, group-by on strings, string min/max
// aggregates, LIKE, TopN on a front-coded column) against the disk-attached
// string-heavy table at parallelism 1, 2 and 8 and requires results
// identical to in-memory serial execution — so dict and prefix chunks are
// decoded on every path, including chunk-aligned parallel morsels.
func TestStringHeavyDiskDifferential(t *testing.T) {
	mem, disk, store := stringHeavyDB(t)

	// The writer must actually have chosen the new codecs, or the
	// differential below exercises nothing.
	storage, err := store.TableStorage("strtab")
	if err != nil {
		t.Fatal(err)
	}
	codecChunks := map[string]map[string]int{}
	for _, cs := range storage {
		codecChunks[cs.Name] = cs.Codecs
		if cs.Name == "mode" && cs.DictCard != len([]string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}) {
			t.Errorf("mode dict cardinality = %d, want 7", cs.DictCard)
		}
	}
	for col, codec := range map[string]string{"mode": "dict", "name": "prefix", "note": "raw"} {
		if codecChunks[col][codec] == 0 {
			t.Errorf("column %s has no %s chunks: %v", col, codec, codecChunks[col])
		}
	}
	if codecChunks["day"]["dict"]+codecChunks["day"]["prefix"] == 0 {
		t.Errorf("day column stayed raw: %v", codecChunks["day"])
	}

	queries := map[string]string{
		"eq-groupby": `Aggr(Select(Scan(strtab), =(mode, 'RAIL')), [mode], [n = count(), s = sum(id)])`,
		"minmax-str": `Aggr(Scan(strtab), [mode], [n = count(), lo = min(name), hi = max(name)])`,
		"range-day":  `Aggr(Select(Scan(strtab), >=(day, '2024-07-01')), [], [n = count(), lo = min(note)])`,
		"like-note":  `Aggr(Select(Scan(strtab), like(note, '%7a%')), [], [n = count()])`,
		"topn-name":  `TopN(Select(Scan(strtab, [name, note, mode]), <(mode, 'SHIP')), [name DESC], 15)`,
	}
	for label, text := range queries {
		t.Run(label, func(t *testing.T) {
			plan, err := algebra.Parse(text)
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
				got, err := core.Run(disk, plan, opts)
				if err != nil {
					t.Fatalf("disk p=%d: %v", p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("%s p=%d", label, p), want, got)
			}
		})
	}
}

// TestDiskQ1Pruning asserts the disk table's l_shipdate carries a chunk
// zone map (the manifest's per-chunk min/max) that skips the chunks lying
// wholly outside a range bound — the summary-index behavior of Section 4.3
// with no in-memory index.
func TestDiskQ1Pruning(t *testing.T) {
	disk := getDiskDB(t)
	lt, err := disk.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	sd := lt.Col("l_shipdate")
	if sd.NumFrags() < 2 {
		t.Skipf("only %d fragments", sd.NumFrags())
	}
	// The chunk zone map covers the column, and a strict bound at the first
	// chunk's maximum (the last chunk's minimum) skips that chunk.
	z := sd.ZoneMap()
	if z == nil || z.Rows() != sd.Len() {
		t.Fatal("l_shipdate has no chunk zone map covering the column")
	}
	r := sd.Reader()
	first, err := r.Vector(0, sd.FragStart(1))
	if err != nil {
		t.Fatal(err)
	}
	last, err := r.Vector(sd.FragStart(sd.NumFrags()-1), sd.Len())
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := z.Prune(colstore.Bound{Val: slices.Max(first.Int32s()), Strict: true}, colstore.Bound{}); lo < sd.FragStart(1) || hi != sd.Len() {
		t.Fatalf("lower bound past chunk 0 prunes to [%d,%d), want chunk 0 skipped", lo, hi)
	}
	if lo, hi := z.Prune(colstore.Bound{}, colstore.Bound{Val: slices.Min(last.Int32s()), Strict: true}); lo != 0 || hi > sd.FragStart(sd.NumFrags()-1) {
		t.Fatalf("upper bound before the last chunk prunes to [%d,%d), want it skipped", lo, hi)
	}
}
