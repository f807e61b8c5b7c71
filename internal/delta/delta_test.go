package delta

import (
	"testing"
	"testing/quick"

	"x100/internal/colstore"
	"x100/internal/vector"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	tab := colstore.NewTable("t")
	if err := tab.AddColumn("k", vector.Int32, []int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumColumn("s", []string{"a", "b", "a", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumF64Column("f", []float64{0.1, 0.2, 0.1, 0.3}); err != nil {
		t.Fatal(err)
	}
	return NewStore(tab)
}

func TestInsertDeleteUpdate(t *testing.T) {
	s := newTestStore(t)
	if s.NumRows() != 4 {
		t.Fatal("initial rows")
	}
	id, err := s.Insert([]any{int32(5), "d", 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 || s.NumRows() != 5 || s.NumDeltaRows() != 1 {
		t.Fatalf("insert: id=%d rows=%d", id, s.NumRows())
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 4 || !s.IsDeleted(1) {
		t.Fatal("delete")
	}
	if _, err := s.Update(0, []any{int32(10), "z", 0.9}); err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 4 || !s.IsDeleted(0) {
		t.Fatal("update")
	}
	live := s.LiveRowIDs()
	want := []int32{2, 3, 4, 5}
	if len(live) != len(want) {
		t.Fatalf("live: %v", live)
	}
	for i := range want {
		if live[i] != want[i] {
			t.Fatalf("live: %v", live)
		}
	}
	if s.DeltaFraction() <= 0 {
		t.Fatal("delta fraction must be positive")
	}
}

func TestInsertErrors(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Insert([]any{int32(1)}); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if _, err := s.Insert([]any{"x", "y", 0.1}); err == nil {
		t.Fatal("wrong type must fail")
	}
	if err := s.Delete(99); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
}

func TestDeltaValueAndVector(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Insert([]any{int32(7), "q", 0.7}); err != nil {
		t.Fatal(err)
	}
	if row := s.DeltaRow(0); row[0] != int32(7) || row[1] != "q" || row[2] != 0.7 {
		t.Fatal("delta values")
	}
	v := s.DeltaVector(1, 0, 1)
	if v.Strings()[0] != "q" {
		t.Fatal("delta vector")
	}
}

func TestReorganize(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Insert([]any{int32(5), "newval", 0.55}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if moved, err := s.Reorganize(); err != nil || !moved {
		t.Fatalf("reorganize dropping row 0: moved %v, err %v", moved, err)
	}
	tab := s.Table()
	if tab.N != 4 || s.NumDeltaRows() != 0 || s.NumDeleted() != 0 {
		t.Fatalf("after reorganize: N=%d", tab.N)
	}
	// Row order: old rows 1,2,3 then the insert.
	wantK := []int32{2, 3, 4, 5}
	wantS := []string{"b", "a", "c", "newval"}
	wantF := []float64{0.2, 0.1, 0.3, 0.55}
	for i := 0; i < 4; i++ {
		if tab.Col("k").DecodedValue(i) != wantK[i] ||
			tab.Col("s").DecodedValue(i) != wantS[i] ||
			tab.Col("f").DecodedValue(i) != wantF[i] {
			t.Fatalf("row %d: %v %v %v", i,
				tab.Col("k").DecodedValue(i), tab.Col("s").DecodedValue(i), tab.Col("f").DecodedValue(i))
		}
	}
	// Enum columns stay enum-compressed after reorganization.
	if !tab.Col("s").IsEnum() || !tab.Col("f").IsEnum() {
		t.Fatal("reorganize must keep enum compression")
	}
}

// Property: for any sequence of operations, the visible rows after
// Reorganize equal the visible rows before (linearization check).
func TestReorganizeLinearization(t *testing.T) {
	f := func(ops []uint8, vals []int32) bool {
		tab := colstore.NewTable("t")
		if err := tab.AddColumn("v", vector.Int32, []int32{10, 20, 30}); err != nil {
			return false
		}
		s := NewStore(tab)
		vi := 0
		nextVal := func() int32 {
			if vi < len(vals) {
				vi++
				return vals[vi-1]
			}
			return int32(vi * 7)
		}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if _, err := s.Insert([]any{nextVal()}); err != nil {
					return false
				}
			case 1:
				total := int32(s.Table().N + s.NumDeltaRows())
				if total > 0 {
					_ = s.Delete(int32(op) % total)
				}
			case 2:
				total := int32(s.Table().N + s.NumDeltaRows())
				if total > 0 {
					if _, err := s.Update(int32(op)%total, []any{nextVal()}); err != nil {
						return false
					}
				}
			}
		}
		var before []any
		for _, id := range s.LiveRowIDs() {
			if int(id) < s.Table().N {
				before = append(before, s.Table().Col("v").DecodedValue(int(id)))
			} else {
				before = append(before, s.DeltaRow(int(id) - s.Table().N)[0])
			}
		}
		if _, err := s.Reorganize(); err != nil {
			return false
		}
		if s.Table().N != len(before) {
			return false
		}
		for i, want := range before {
			if s.Table().Col("v").DecodedValue(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
