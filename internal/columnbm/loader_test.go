package columnbm

import (
	"testing"

	"x100/internal/colstore"
	"x100/internal/vector"
)

func TestTableRoundTrip(t *testing.T) {
	tab := colstore.NewTable("mixed")
	if err := tab.AddColumn("i32", vector.Int32, []int32{-1, 0, 5}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("i64", vector.Int64, []int64{1 << 40, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("f", vector.Float64, []float64{0.5, -1.25, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("s", vector.String, []string{"a", "", "long string here"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("b", vector.Bool, []bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("d", vector.Date, []int32{100, 200, 300}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumColumn("es", []string{"x", "y", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumF64Column("ef", []float64{0.1, 0.1, 0.2}); err != nil {
		t.Fatal(err)
	}

	store, err := NewStore(t.TempDir(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveTable(tab); err != nil {
		t.Fatal(err)
	}
	got, err := store.AttachTable("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if got.N != tab.N || len(got.Cols) != len(tab.Cols) {
		t.Fatalf("shape: %d cols %d rows", len(got.Cols), got.N)
	}
	for _, col := range tab.Cols {
		lc := got.Col(col.Name)
		if lc == nil {
			t.Fatalf("missing column %s", col.Name)
		}
		if lc.Typ != col.Typ || lc.IsEnum() != col.IsEnum() {
			t.Fatalf("%s: type %v enum %v", col.Name, lc.Typ, lc.IsEnum())
		}
		for i := 0; i < tab.N; i++ {
			if lc.DecodedValue(i) != col.DecodedValue(i) {
				t.Fatalf("%s row %d: %v vs %v", col.Name, i, lc.DecodedValue(i), col.DecodedValue(i))
			}
		}
	}
}

func TestLoadMissingTable(t *testing.T) {
	store, err := NewStore(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AttachTable("ghost"); err == nil {
		t.Fatal("missing manifest must error")
	}
}
