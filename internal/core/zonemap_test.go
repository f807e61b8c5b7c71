package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/expr"
	"x100/internal/vector"
)

// zmRows is the row count of the pruning differential's tables: 15 chunks
// of zmChunk rows plus a short last chunk of 40.
const (
	zmRows  = 1000
	zmChunk = 64
)

// zmColumns are the differential's columns: one per zone map family, a
// float column reaching ±Inf, which a manifest cannot record (JSON has no
// infinities), so only summaries prune it, and a float column holding a
// NaN, which nothing prunes.
var zmColumns = []string{"d", "i", "f", "fi", "fn", "s"}

// zmKeys returns the ordering keys of a column shape; every column of the
// table maps them through an order-preserving function.
func zmKeys(shape string) []int {
	keys := make([]int, zmRows)
	rng := rand.New(rand.NewSource(38))
	for r := range keys {
		switch shape {
		case "sorted":
			keys[r] = r / 3
		case "reverse":
			keys[r] = (zmRows - 1 - r) / 3
		case "random":
			keys[r] = rng.Intn(zmRows / 3)
		case "constant":
			keys[r] = 7
		}
	}
	return keys
}

// zmFloat maps a key to a float: -0 for key 200 and key/4-50 otherwise.
func zmFloat(k int) float64 {
	if k == 200 {
		return math.Copysign(0, -1)
	}
	return float64(k)/4 - 50
}

// zmInf is zmFloat with -Inf for key 0 and +Inf for the largest key of the
// sorted shapes.
func zmInf(k int) float64 {
	switch k {
	case 0:
		return math.Inf(-1)
	case zmRows/3 - 1:
		return math.Inf(1)
	}
	return zmFloat(k)
}

// zmTable builds the differential's table over the keys of a shape: a date,
// an int64, a float (with -0), a float with -0 and ±Inf, a float with -0
// and a NaN, and a string column.
func zmTable(keys []int) *colstore.Table {
	n := len(keys)
	d := make([]int32, n)
	i64 := make([]int64, n)
	f := make([]float64, n)
	fi := make([]float64, n)
	fn := make([]float64, n)
	s := make([]string, n)
	for r, k := range keys {
		d[r] = int32(8000 + k)
		i64[r] = int64(k)*1_000_000_007 - 100_000_000_000
		f[r] = zmFloat(k)
		fi[r] = zmInf(k)
		fn[r] = f[r]
		s[r] = fmt.Sprintf("k%05d", k)
	}
	if n > zmRows/2 {
		fn[zmRows/2] = math.NaN()
	}
	t := colstore.NewTable("zm")
	for _, c := range []struct {
		name string
		typ  vector.Type
		data any
	}{{"d", vector.Date, d}, {"i", vector.Int64, i64}, {"f", vector.Float64, f}, {"fi", vector.Float64, fi},
		{"fn", vector.Float64, fn}, {"s", vector.String, s}} {
		if err := t.AddColumn(c.name, c.typ, c.data); err != nil {
			panic(err)
		}
	}
	return t
}

// zmLayout builds one database layout over a shape's keys and reports the
// granule of its registered summaries (0: the chunk zone maps prune).
type zmLayout struct {
	name    string
	granule int
	build   func(t *testing.T, keys []int) *Database
}

func zmLayouts() []zmLayout {
	mem := func(g int) zmLayout {
		return zmLayout{fmt.Sprintf("memory/granule%d", g), g, func(t *testing.T, keys []int) *Database {
			db := NewDatabase()
			db.AddTable(zmTable(keys))
			zmSummaries(t, db, g)
			return db
		}}
	}
	// disk saves the first `base` rows in zmChunk-row chunks, attaches
	// them, and checkpoints the rest in as an appended chunk run.
	disk := func(name string, g, base int) zmLayout {
		return zmLayout{name, g, func(t *testing.T, keys []int) *Database {
			store, err := columnbm.NewStore(t.TempDir(), zmChunk, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.SaveTable(zmTable(keys[:base])); err != nil {
				t.Fatal(err)
			}
			db := NewDatabase()
			db.SetDurability(DurabilityCheckpoint)
			if _, err := AttachDiskTable(db, store, "zm"); err != nil {
				t.Fatal(err)
			}
			zmSummaries(t, db, g)
			if base < len(keys) {
				tail := zmTable(keys[base:])
				ds, err := db.Delta("zm")
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < tail.N; r++ {
					row := make([]any, len(tail.Cols))
					for c, col := range tail.Cols {
						row[c] = col.DecodedValue(r)
					}
					if _, err := ds.Insert(row); err != nil {
						t.Fatal(err)
					}
				}
				if done, err := db.Checkpoint("zm"); err != nil || !done {
					t.Fatalf("checkpoint: done=%v err=%v", done, err)
				}
			}
			return db
		}}
	}
	return []zmLayout{
		mem(1), mem(7), mem(1024),
		disk("disk/chunks", 0, zmRows),
		disk("disk/summary", 7, zmRows),
		disk("disk/checkpoint", 0, 900),
		disk("disk/checkpoint+summary", 7, 900),
	}
}

func zmSummaries(t *testing.T, db *Database, granule int) {
	t.Helper()
	if granule == 0 {
		return
	}
	for _, c := range zmColumns {
		if err := db.BuildSummaryIndex("zm", c, granule); err != nil {
			t.Fatal(err)
		}
	}
}

// zmConst wraps a column value as a predicate constant of its type.
func zmConst(v any) *expr.Const {
	switch x := v.(type) {
	case int32:
		return expr.DateConst(x)
	case int64:
		return expr.Int(x)
	case float64:
		return expr.Float(x)
	}
	return expr.Str(v.(string))
}

// zmCompare orders two values of one column; ok is false when a NaN makes
// them unordered, and then every comparison is false.
func zmCompare(a, b any) (c int, ok bool) {
	switch x := a.(type) {
	case int32:
		return cmp.Compare(x, b.(int32)), true
	case int64:
		return cmp.Compare(x, b.(int64)), true
	case float64:
		y := b.(float64)
		if math.IsNaN(x) || math.IsNaN(y) {
			return 0, false
		}
		return cmp.Compare(x, y), true
	}
	return cmp.Compare(a.(string), b.(string)), true
}

// zmHolds evaluates v <op> k the way the engine does.
func zmHolds(op expr.CmpKind, v, k any) bool {
	c, ok := zmCompare(v, k)
	if !ok {
		return false
	}
	switch op {
	case expr.LT:
		return c < 0
	case expr.LE:
		return c <= 0
	case expr.GT:
		return c > 0
	case expr.GE:
		return c >= 0
	}
	return c == 0
}

// zmPred is one generated predicate: its expression and a Go evaluation.
type zmPred struct {
	label string
	e     expr.Expr
	holds func(v any) bool
}

var zmFlip = map[expr.CmpKind]expr.CmpKind{expr.LT: expr.GT, expr.LE: expr.GE, expr.GT: expr.LT, expr.GE: expr.LE, expr.EQ: expr.EQ}

// zmPreds generates the predicates over one column: every comparison
// against constants that are either values of the column (its extremes,
// quartiles, -0 for floats) or lie beyond both its ends, in both
// col <op> const and const <op> col form, and ANDs of a lower and an upper
// bound.
func zmPreds(col string, vals []any) []zmPred {
	sorted := slices.Clone(vals)
	slices.SortFunc(sorted, func(a, b any) int { c, _ := zmCompare(a, b); return c })
	consts := []any{sorted[0], sorted[len(sorted)/4], sorted[len(sorted)/2], sorted[len(sorted)-1]}
	switch vals[0].(type) {
	case int32:
		consts = append(consts, int32(math.MinInt32), int32(math.MaxInt32))
	case int64:
		consts = append(consts, int64(math.MinInt64), int64(math.MaxInt64))
	case float64:
		consts = append(consts, math.Copysign(0, -1), math.Inf(-1), math.Inf(1))
	case string:
		consts = append(consts, "", "z")
	}
	var out []zmPred
	for _, k := range consts {
		for _, op := range []expr.CmpKind{expr.LT, expr.LE, expr.GT, expr.GE, expr.EQ} {
			out = append(out,
				zmPred{fmt.Sprintf("%s %v %v", col, op, k), &expr.Cmp{Op: op, L: expr.C(col), R: zmConst(k)},
					func(v any) bool { return zmHolds(op, v, k) }},
				zmPred{fmt.Sprintf("%v %v %s", k, zmFlip[op], col), &expr.Cmp{Op: zmFlip[op], L: zmConst(k), R: expr.C(col)},
					func(v any) bool { return zmHolds(op, v, k) }})
		}
	}
	// The first four constants ascend, so each AND pairs a lower bound
	// with an upper bound at or above it.
	for i := 0; i < 3; i++ {
		lo, hi := consts[i], consts[i+1]
		out = append(out, zmPred{fmt.Sprintf("%s >= %v AND %s < %v", col, lo, col, hi),
			expr.AndE(expr.GEE(expr.C(col), zmConst(lo)), expr.LTE(expr.C(col), zmConst(hi))),
			func(v any) bool { return zmHolds(expr.GE, v, lo) && zmHolds(expr.LT, v, hi) }})
	}
	return out
}

// zmGrid returns the range starts a column's zone map uses: the granule
// grid restarting at every fragment (a registered summary), or the
// fragment starts (a chunk zone map). The last entry is the row count.
func zmGrid(c *colstore.Column, granule int) []int {
	var grid []int
	for f := 0; f < c.NumFrags(); f++ {
		step := c.FragStart(f+1) - c.FragStart(f)
		if granule > 0 {
			step = granule
		}
		for r := c.FragStart(f); r < c.FragStart(f+1); r += step {
			grid = append(grid, r)
		}
	}
	return append(grid, c.Len())
}

// TestZoneMapPruningDifferential generates columns of every zone map
// family in four shapes (sorted, reverse, random, constant) and lays them
// out as in-memory summaries of several granules, disk chunk grids with a
// short last chunk, disk columns with a summary, and checkpoint appends.
// For every generated predicate the scan's pruned range [lo, hi) must be
// sound (no row outside it satisfies the predicate); on sorted input it
// must be exactly the ranges holding matches; and where it prunes, the
// query must answer as with NoSummaryIndex.
func TestZoneMapPruningDifferential(t *testing.T) {
	for _, layout := range zmLayouts() {
		for _, shape := range []string{"sorted", "reverse", "random", "constant"} {
			t.Run(layout.name+"/"+shape, func(t *testing.T) {
				keys := zmKeys(shape)
				db := layout.build(t, keys)
				want := zmTable(keys)
				for _, col := range zmColumns {
					vals := make([]any, zmRows)
					for r := range vals {
						vals[r] = want.Col(col).DecodedValue(r)
					}
					for _, p := range zmPreds(col, vals) {
						// On sorted input the pruned range must be exact
						// wherever the column has bounds to prune with.
						exact := shape == "sorted" && col != "fn" && (layout.granule > 0 || col != "fi")
						zmCheck(t, db, layout.granule, exact, col, vals, p)
					}
				}
			})
		}
	}
}

func zmCheck(t *testing.T, db *Database, granule int, sorted bool, col string, vals []any, p zmPred) {
	t.Helper()
	opts := DefaultOptions()
	opts.snaps = db.newSnapSet()
	defer opts.snaps.release()
	op, err := newScanOp(db, "zm", []string{col}, opts)
	if err != nil {
		t.Fatal(err)
	}
	applySummaryBounds(op.view, p.e, op)
	first, last, matches := -1, -1, 0
	for r, v := range vals {
		if !p.holds(v) {
			continue
		}
		matches++
		if first < 0 {
			first = r
		}
		last = r
		if r < op.lo || r >= op.hi {
			t.Fatalf("%s: row %d (%v) matches outside the pruned range [%d,%d)", p.label, r, v, op.lo, op.hi)
		}
	}
	if sorted {
		grid := zmGrid(op.view.col(col), granule)
		wantLo, wantHi := 0, 0
		if matches > 0 {
			i, _ := slices.BinarySearch(grid, first+1)
			j, _ := slices.BinarySearch(grid, last+1)
			wantLo, wantHi = grid[i-1], grid[j]
		}
		if (matches > 0 || op.lo != op.hi) && (op.lo != wantLo || op.hi != wantHi) {
			t.Fatalf("%s: pruned to [%d,%d), want the ranges holding matches [%d,%d)", p.label, op.lo, op.hi, wantLo, wantHi)
		}
	}
	if op.lo == 0 && op.hi == zmRows {
		return // nothing pruned: both runs execute the same scan
	}
	plan := algebra.NewAggr(algebra.NewSelect(algebra.NewScan("zm", col), p.e), nil,
		[]algebra.AggExpr{algebra.Count("n")})
	on, err := Run(db, plan, DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", p.label, err)
	}
	offOpts := DefaultOptions()
	offOpts.NoSummaryIndex = true
	off, err := Run(db, plan, offOpts)
	if err != nil {
		t.Fatalf("%s: %v", p.label, err)
	}
	if !reflect.DeepEqual(on.Rows(), off.Rows()) || on.Row(0)[0].(int64) != int64(matches) {
		t.Fatalf("%s: counted %v pruned, %v unpruned, want %d", p.label, on.Rows(), off.Rows(), matches)
	}
}

// TestSummaryIndexDiskNoPin builds summary indices over date, int64 and
// string columns of a disk-attached table. Each build streams the column:
// it succeeds, leaves Column.Pinned false (also across the rebuild a
// checkpoint triggers), and a range query prunes at the summary's granule,
// finer than the chunk grid.
func TestSummaryIndexDiskNoPin(t *testing.T) {
	const n, chunk, granule = 20000, 1000, 100
	tab := colstore.NewTable("events")
	d := make([]int32, n)
	i64 := make([]int64, n)
	s := make([]string, n)
	for r := range d {
		d[r] = int32(9000 + r/10)
		i64[r] = int64(r) * 7
		s[r] = fmt.Sprintf("e%06d", r)
	}
	for _, c := range []struct {
		name string
		typ  vector.Type
		data any
	}{{"d", vector.Date, d}, {"i", vector.Int64, i64}, {"s", vector.String, s}} {
		must(t, tab.AddColumn(c.name, c.typ, c.data))
	}
	store, err := columnbm.NewStore(t.TempDir(), chunk, 0)
	must(t, err)
	must(t, store.SaveTable(tab))
	db := NewDatabase()
	db.SetDurability(DurabilityCheckpoint)
	_, err = AttachDiskTable(db, store, "events")
	must(t, err)

	// Row 5150 is the first match of every predicate: its summary range
	// starts at row 5100, its chunk at row 5000.
	preds := map[string]expr.Expr{
		"d": expr.GEE(expr.C("d"), expr.DateConst(9515)),
		"i": expr.GEE(expr.C("i"), expr.Int(5150*7)),
		"s": expr.GEE(expr.C("s"), expr.Str("e005150")),
	}
	check := func(stage string) {
		t.Helper()
		et, err := db.Table("events")
		must(t, err)
		for col, pred := range preds {
			if et.Col(col).Pinned() {
				t.Fatalf("%s: column %s pinned", stage, col)
			}
			opts := DefaultOptions()
			opts.snaps = db.newSnapSet()
			op, err := newScanOp(db, "events", []string{col}, opts)
			must(t, err)
			applySummaryBounds(op.view, pred, op)
			opts.snaps.release()
			if op.lo != 5100 || op.hi != et.N {
				t.Fatalf("%s: %s pruned to [%d,%d), want [5100,%d)", stage, col, op.lo, op.hi, et.N)
			}
			res, err := Run(db, algebra.NewAggr(algebra.NewSelect(algebra.NewScan("events", col), pred), nil,
				[]algebra.AggExpr{algebra.Count("n")}), DefaultOptions())
			must(t, err)
			if got := res.Row(0)[0].(int64); got != int64(et.N-5150) {
				t.Fatalf("%s: %s counted %d rows, want %d", stage, col, got, et.N-5150)
			}
			if et.Col(col).Pinned() {
				t.Fatalf("%s: column %s pinned by the query", stage, col)
			}
		}
	}
	for col := range preds {
		if err := db.BuildSummaryIndex("events", col, granule); err != nil {
			t.Fatalf("BuildSummaryIndex(%s): %v", col, err)
		}
	}
	check("after build")
	ds, err := db.Delta("events")
	must(t, err)
	_, err = ds.Insert([]any{int32(11000), int64(n * 7), "e999999"})
	must(t, err)
	if done, err := db.Checkpoint("events"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	check("after checkpoint")
}
