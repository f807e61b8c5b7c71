package columnbm

import (
	"testing"

	"x100/internal/colstore"
	"x100/internal/vector"
)

// buildMixedTable creates a table covering every physical column kind with
// enough rows for several chunks at small chunk sizes.
func buildMixedTable(t *testing.T, n int) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("mixed")
	keys := make([]int64, n)
	dates := make([]int32, n)
	prices := make([]float64, n)
	names := make([]string, n)
	flags := make([]bool, n)
	enums := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i) * 3
		dates[i] = int32(10000 + i/5)
		prices[i] = float64(i%97) * 1.5
		names[i] = string(rune('a'+i%26)) + "-val"
		flags[i] = i%3 == 0
		enums[i] = []string{"N", "R", "A"}[i%3]
	}
	if err := tab.AddColumn("k", vector.Int64, keys); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("d", vector.Date, dates); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("p", vector.Float64, prices); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("s", vector.String, names); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("b", vector.Bool, flags); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumColumn("e", enums); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestAttachTableStreams saves a table, attaches it fragment-backed, and
// verifies every value through a FragReader — including batch ranges that
// stop at chunk boundaries — and through Pin (full materialization).
func TestAttachTableStreams(t *testing.T) {
	const n, chunk = 2500, 700 // chunk deliberately not a power of two
	orig := buildMixedTable(t, n)
	store, err := NewStore(t.TempDir(), chunk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(orig); err != nil {
		t.Fatal(err)
	}
	got, err := store.AttachTable("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != n {
		t.Fatalf("attached %d rows, want %d", got.N, n)
	}
	if got.ChunkRows != chunk {
		t.Fatalf("ChunkRows = %d, want %d", got.ChunkRows, chunk)
	}
	for _, col := range orig.Cols {
		ac := got.Col(col.Name)
		if ac == nil {
			t.Fatalf("column %s missing after attach", col.Name)
		}
		wantFrags := (n + chunk - 1) / chunk
		if ac.NumFrags() != wantFrags {
			t.Fatalf("column %s has %d fragments, want %d", col.Name, ac.NumFrags(), wantFrags)
		}
		// Stream in steps that exercise mid-fragment and boundary reads.
		r := ac.Reader()
		for lo := 0; lo < n; {
			_, fe := ac.FragSpan(lo)
			hi := min(lo+64, fe)
			v, err := r.Vector(lo, hi)
			if err != nil {
				t.Fatalf("column %s [%d,%d): %v", col.Name, lo, hi, err)
			}
			if v.Len() != hi-lo {
				t.Fatalf("column %s [%d,%d): %d values", col.Name, lo, hi, v.Len())
			}
			lo = hi
		}
		// Value-level comparison via the pinned path.
		for i := 0; i < n; i += 41 {
			if ac.DecodedValue(i) != col.DecodedValue(i) {
				t.Fatalf("column %s row %d: %v vs %v", col.Name, i, ac.DecodedValue(i), col.DecodedValue(i))
			}
		}
	}
}

// TestAttachReaderCrossFragment asserts a read spanning a chunk boundary is
// rejected (scans clamp batches, so this is an internal contract check).
func TestAttachReaderCrossFragment(t *testing.T) {
	orig := buildMixedTable(t, 100)
	store, err := NewStore(t.TempDir(), 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(orig); err != nil {
		t.Fatal(err)
	}
	got, err := store.AttachTable("mixed")
	if err != nil {
		t.Fatal(err)
	}
	r := got.Col("k").Reader()
	if _, err := r.Vector(35, 45); err == nil {
		t.Fatal("expected cross-fragment read to fail")
	}
	if v, err := r.Vector(40, 45); err != nil || v.Len() != 5 {
		t.Fatalf("aligned read failed: %v", err)
	}
}

// TestAttachChunkBounds verifies per-chunk min/max land in the manifest
// and become the attached column's zone map, one range per chunk.
func TestAttachChunkBounds(t *testing.T) {
	orig := buildMixedTable(t, 1000)
	store, err := NewStore(t.TempDir(), 250, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(orig); err != nil {
		t.Fatal(err)
	}
	m, err := store.ReadManifest("mixed")
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.AttachTable("mixed")
	if err != nil {
		t.Fatal(err)
	}
	k := got.Col("k") // k[i] = 3i, chunks of 250 rows
	z := k.ZoneMap()
	if z == nil || z.Rows() != 1000 {
		t.Fatal("int column has no chunk zone map")
	}
	cm := m.Columns[0]
	if cm.Name != "k" || len(cm.ChunkMinI64) != 4 || len(cm.ChunkMaxI64) != 4 {
		t.Fatalf("manifest column %s records %d/%d int bounds, want 4", cm.Name, len(cm.ChunkMinI64), len(cm.ChunkMaxI64))
	}
	for c := 0; c < 4; c++ {
		wantMin, wantMax := int64(3*250*c), int64(3*(250*(c+1)-1))
		if cm.ChunkMinI64[c] != wantMin || cm.ChunkMaxI64[c] != wantMax {
			t.Fatalf("chunk %d bounds [%d,%d], want [%d,%d]", c, cm.ChunkMinI64[c], cm.ChunkMaxI64[c], wantMin, wantMax)
		}
		// Either end of a chunk's bounds selects exactly that chunk.
		for _, v := range []int64{wantMin, wantMax} {
			if lo, hi := z.Prune(colstore.Bound{Val: v}, colstore.Bound{Val: v}); lo != 250*c || hi != 250*(c+1) {
				t.Fatalf("k = %d prunes to [%d,%d), want chunk %d", v, lo, hi, c)
			}
		}
	}
	if got.Col("p").ZoneMap() == nil || got.Col("s").ZoneMap() == nil || got.Col("d").ZoneMap() == nil {
		t.Fatal("float, string or date column has no zone map")
	}
	// Enum codes must not advertise value bounds (code order is not value
	// order), and bools have none.
	if got.Col("e").ZoneMap() != nil || got.Col("b").ZoneMap() != nil {
		t.Fatal("enum or bool column has a zone map")
	}
}

// TestAttachStorageReport sanity-checks TableStorage totals.
func TestAttachStorageReport(t *testing.T) {
	orig := buildMixedTable(t, 1000)
	store, err := NewStore(t.TempDir(), 250, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(orig); err != nil {
		t.Fatal(err)
	}
	cols, err := store.TableStorage("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != len(orig.Cols) {
		t.Fatalf("%d columns reported, want %d", len(cols), len(orig.Cols))
	}
	for _, c := range cols {
		if c.Chunks != 4 {
			t.Fatalf("column %s: %d chunks, want 4", c.Name, c.Chunks)
		}
		total := 0
		for _, n := range c.Codecs {
			total += n
		}
		if total != c.Chunks {
			t.Fatalf("column %s: codec counts %v do not sum to %d", c.Name, c.Codecs, c.Chunks)
		}
		if c.CompressedBytes <= 0 && c.RawBytes > 0 {
			t.Fatalf("column %s: no compressed bytes", c.Name)
		}
	}
	// The sequential key column must compress (delta or FoR).
	for _, c := range cols {
		if c.Name == "k" && c.CompressedBytes >= c.RawBytes {
			t.Fatalf("sequential column did not compress: %+v", c)
		}
	}
}
