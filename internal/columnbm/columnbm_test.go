package columnbm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"x100/internal/colstore"
	"x100/internal/vector"
)

func newTestStore(t *testing.T, chunkValues int) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir(), chunkValues, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// saveColumn persists vals as column "v" of a one-column table through
// SaveTable and attaches it back, unread.
func saveColumn(t *testing.T, s *Store, table string, typ vector.Type, vals any) *colstore.Column {
	t.Helper()
	tab := colstore.NewTable(table)
	if err := tab.AddColumn("v", typ, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	att, err := s.AttachTable(table)
	if err != nil {
		t.Fatal(err)
	}
	return att.Col("v")
}

// readBack pins an attached column, which reads and checksums every chunk.
func readBack(t *testing.T, c *colstore.Column, want any) {
	t.Helper()
	got, err := c.Pin()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

// compressedBytes is the chunk payload size TableStorage reports for a
// one-column table.
func compressedBytes(t *testing.T, s *Store, table string) int64 {
	t.Helper()
	cols, err := s.TableStorage(table)
	if err != nil {
		t.Fatal(err)
	}
	return cols[0].CompressedBytes
}

func TestInt64RoundTrip(t *testing.T) {
	s := newTestStore(t, 16)
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	c := saveColumn(t, s, "c", vector.Int64, vals)
	if n := c.NumFrags(); n != 7 { // ceil(100/16)
		t.Fatalf("chunks: %d", n)
	}
	readBack(t, c, vals)
}

func TestRLEWinsOnRuns(t *testing.T) {
	s := newTestStore(t, 1<<12)
	vals := make([]int64, 1<<12)
	for i := range vals {
		vals[i] = int64(i / 512) // long runs
	}
	c := saveColumn(t, s, "runs", vector.Int64, vals)
	if sz := compressedBytes(t, s, "runs"); sz >= int64(8*len(vals)) {
		t.Fatalf("no compression: %d bytes", sz)
	}
	readBack(t, c, vals)
}

func TestFoRWinsOnNarrowRange(t *testing.T) {
	s := newTestStore(t, 1<<12)
	vals := make([]int64, 1<<12)
	for i := range vals {
		vals[i] = 1_000_000_000 + int64(i%200) // narrow deltas, no runs
	}
	c := saveColumn(t, s, "narrow", vector.Int64, vals)
	if sz := compressedBytes(t, s, "narrow"); sz >= int64(2*len(vals)) {
		t.Fatalf("FoR should pack to ~1 byte/value, got %d bytes", sz)
	}
	readBack(t, c, vals)
}

func TestFloatAndStringRoundTrip(t *testing.T) {
	s := newTestStore(t, 8)
	fvals := []float64{1.5, -2.25, 0, 3.14159}
	readBack(t, saveColumn(t, s, "f", vector.Float64, fvals), fvals)
	svals := []string{"", "hello", "a\x00b", "UTF-8 ✓"}
	readBack(t, saveColumn(t, s, "s", vector.String, svals), svals)
}

func TestEmptyColumn(t *testing.T) {
	s := newTestStore(t, 8)
	readBack(t, saveColumn(t, s, "empty", vector.Int64, []int64{}), []int64{})
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	saveColumn(t, s, "c", vector.Int64, []int64{1, 2, 3})
	// Flip magic bytes of the first chunk.
	path := filepath.Join(dir, "c.v.000000.chunk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	attachPin := func() error {
		s, err := NewStore(dir, 8, 2) // fresh pool (no cached copy)
		if err != nil {
			t.Fatal(err)
		}
		att, err := s.AttachTable("c")
		if err != nil {
			t.Fatal(err)
		}
		_, err = att.Col("v").Pin()
		return err
	}
	if attachPin() == nil {
		t.Fatal("corrupt chunk must be detected")
	}
	// Truncated payload is detected too.
	raw[0] ^= 0xff // restore magic
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if attachPin() == nil {
		t.Fatal("truncated chunk must be detected")
	}
}

func TestMissingChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := saveColumn(t, s, "missing", vector.Int64, []int64{1, 2, 3})
	if err := os.Remove(filepath.Join(dir, "missing.v.000000.chunk")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pin(); err == nil {
		t.Fatal("missing chunk must error")
	}
}

func TestPoolLRUAndStats(t *testing.T) {
	p := NewPool(2)
	load := func(v byte) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte{v}, nil }
	}
	p.Get("a", load(1))
	p.Get("b", load(2))
	p.Get("a", load(1)) // hit, refreshes a
	p.Get("c", load(3)) // evicts b
	if p.Len() != 2 {
		t.Fatalf("len %d", p.Len())
	}
	hits, misses, evictions := p.Stats()
	if hits != 1 || misses != 3 || evictions != 1 {
		t.Fatalf("stats: %d %d %d", hits, misses, evictions)
	}
	p.Invalidate("a")
	if p.Len() != 1 {
		t.Fatal("invalidate")
	}
}

// Property: arbitrary int64 data round-trips through the codec selection.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		payload, codec := encodeInt64(vals)
		got := make([]int64, len(vals))
		if err := decodeIntInto(got, chunkHeader{codec: codec, count: len(vals), rawSize: 8 * len(vals)}, payload); err != nil {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
