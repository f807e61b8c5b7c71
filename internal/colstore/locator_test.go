package colstore

import (
	"math/rand"
	"testing"

	"x100/internal/vector"
)

// countingFragment wraps a memFragment counting materializations and
// returning owned copies, so the test observes the locator's LRU behavior
// exactly as with disk chunks (scratch buffers, eviction, reuse).
type countingFragment struct {
	vals         []int64
	materialized int
}

func (f *countingFragment) Rows() int { return len(f.vals) }

func (f *countingFragment) Materialize(buf any) (any, bool, error) {
	f.materialized++
	dst, _ := buf.([]int64)
	if cap(dst) < len(f.vals) {
		dst = make([]int64, len(f.vals))
	}
	dst = dst[:len(f.vals)]
	copy(dst, f.vals)
	return dst, true, nil
}

func locatorColumn(nfrags, rowsPer int) (*Column, []*countingFragment) {
	frags := make([]Fragment, nfrags)
	cfs := make([]*countingFragment, nfrags)
	v := int64(0)
	for i := range frags {
		vals := make([]int64, rowsPer)
		for j := range vals {
			vals[j] = v
			v++
		}
		cf := &countingFragment{vals: vals}
		frags[i], cfs[i] = cf, cf
	}
	return NewFragColumn("c", vector.Int64, nil, vector.Int64, frags), cfs
}

// TestLocatorBoundedCache asserts the locator never holds more than its
// capacity in decoded fragments, never pins the column, and returns correct
// values under a random access pattern.
func TestLocatorBoundedCache(t *testing.T) {
	col, _ := locatorColumn(16, 50)
	l := col.Locator(3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		id := rng.Intn(col.Len())
		got, err := l.Value(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.(int64) != int64(id) {
			t.Fatalf("Value(%d) = %v", id, got)
		}
		if l.Cached() > 3 {
			t.Fatalf("locator holds %d fragments, cap 3", l.Cached())
		}
	}
	if col.Pinned() {
		t.Fatal("locator access pinned the column")
	}
}

// TestLocatorClusteredReuse asserts a clustered (sorted) access pattern
// materializes each fragment exactly once: the MRU front entry absorbs
// runs, and the LRU keeps recently decoded neighbors.
func TestLocatorClusteredReuse(t *testing.T) {
	col, cfs := locatorColumn(8, 100)
	l := col.Locator(2)
	dst := vector.New(vector.Int64, 256)
	ids := make([]int32, 256)
	for lo := 0; lo < col.Len(); lo += 256 {
		n := min(256, col.Len()-lo)
		for j := 0; j < n; j++ {
			ids[j] = int32(lo + j)
		}
		if err := l.Gather(dst.Slice(0, n), ids[:n], nil, n); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if dst.Int64s()[j] != int64(lo+j) {
				t.Fatalf("gather at %d = %d", lo+j, dst.Int64s()[j])
			}
		}
	}
	for i, cf := range cfs {
		if cf.materialized != 1 {
			t.Fatalf("fragment %d materialized %d times on a clustered sweep", i, cf.materialized)
		}
	}
}

// TestLocatorGatherSelAndEnum covers the selection-vector path and enum
// decoding through the dictionary.
func TestLocatorGatherSelAndEnum(t *testing.T) {
	tab := NewTable("t")
	vals := make([]string, 300)
	for i := range vals {
		vals[i] = []string{"red", "green", "blue"}[i%3]
	}
	if err := tab.AddEnumColumn("e", vals); err != nil {
		t.Fatal(err)
	}
	col := tab.Col("e")
	l := col.Locator(0)
	ids := []int32{299, 0, 7, 100}
	sel := []int32{0, 2, 3}
	dst := vector.New(vector.String, 4)
	if err := l.Gather(dst, ids, sel, 4); err != nil {
		t.Fatal(err)
	}
	for _, i := range sel {
		want := vals[ids[i]]
		if dst.Strings()[i] != want {
			t.Fatalf("enum gather sel %d: %q, want %q", i, dst.Strings()[i], want)
		}
	}
}

// TestLocatorOutOfRange asserts row ids outside the column fail cleanly.
func TestLocatorOutOfRange(t *testing.T) {
	col, _ := locatorColumn(2, 10)
	l := col.Locator(0)
	if _, err := l.Value(20); err == nil {
		t.Fatal("Value(20) over 20-row column did not fail")
	}
	if _, err := l.Value(-1); err == nil {
		t.Fatal("Value(-1) did not fail")
	}
	dst := vector.New(vector.Int64, 1)
	if err := l.Gather(dst, []int32{42}, nil, 1); err == nil {
		t.Fatal("gather past the column did not fail")
	}
}
