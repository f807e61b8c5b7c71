package tpch

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/core"
	"x100/internal/expr"
	"x100/internal/mil"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// hashKeyType generates the key columns of one key type: the value of key
// id as a boxed value, and how to add a column of such values to a table.
// "u8" and "u16" are dictionary-coded string columns, so a join on them
// runs on narrow codes translated between the two sides' dictionaries,
// and a group-by on them groups on codes.
type hashKeyType struct {
	name   string
	domain int // distinct key ids the shape draws from
	value  func(id int) any
	hash   func(h uint64, v any) uint64 // folds v into row hash h; nil: codes

	add func(tab *colstore.Table, name string, vals []any) error
}

func hashKeyTypes() []hashKeyType {
	addTyped := func(t vector.Type, conv func([]any) any) func(*colstore.Table, string, []any) error {
		return func(tab *colstore.Table, name string, vals []any) error {
			return tab.AddColumn(name, t, conv(vals))
		}
	}
	addEnum := func(tab *colstore.Table, name string, vals []any) error {
		s := make([]string, len(vals))
		for i, v := range vals {
			s[i] = v.(string)
		}
		return tab.AddEnumColumn(name, s)
	}
	return []hashKeyType{
		{name: "u8", domain: 200, value: func(id int) any { return fmt.Sprintf("e%03d", id) }, add: addEnum},
		{name: "u16", domain: 600, value: func(id int) any { return fmt.Sprintf("w%04d", id) }, add: addEnum},
		{name: "int32", domain: 600, value: func(id int) any { return int32(id*7 - 900) },
			hash: func(h uint64, v any) uint64 { return primitives.HashCombineValueInt(h, uint64(v.(int32))) },
			add:  addTyped(vector.Int32, func(v []any) any { return typed[int32](v) })},
		{name: "int64", domain: 600, value: func(id int) any { return int64(id)<<33 | 5 },
			hash: func(h uint64, v any) uint64 { return primitives.HashCombineValueInt(h, uint64(v.(int64))) },
			add:  addTyped(vector.Int64, func(v []any) any { return typed[int64](v) })},
		{name: "float64", domain: 600, value: func(id int) any { return float64(id)*0.25 - 3 },
			hash: func(h uint64, v any) uint64 { return primitives.HashCombineValueF64(h, v.(float64)) },
			add:  addTyped(vector.Float64, func(v []any) any { return typed[float64](v) })},
		{name: "string", domain: 600, value: func(id int) any { return fmt.Sprintf("key-%d", id) },
			hash: func(h uint64, v any) uint64 { return primitives.HashCombineValueStr(h, v.(string)) },
			add:  addTyped(vector.String, func(v []any) any { return typed[string](v) })},
	}
}

func typed[T any](vals []any) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	return out
}

// collidingIDs returns n key ids beyond the type's domain whose first-key
// hashes agree in their low 12 bits: one bucket of any join table or group
// table of up to 4096 buckets, which every shape here stays under.
func collidingIDs(kt hashKeyType, n int) []int {
	byBucket := map[uint64][]int{}
	for id := 100000; ; id++ {
		b := kt.hash(0, kt.value(id)) & 0xfff
		byBucket[b] = append(byBucket[b], id)
		if len(byBucket[b]) == n {
			return byBucket[b]
		}
	}
}

// secondKey is the id of the second key of key id x.
func secondKey(x int) int {
	if x%5 == 0 {
		return x + 2
	}
	return x + 1
}

// decoys returns two second-key ids y for key id x whose two-key hash
// (x, y) falls into the bucket of (x, secondKey(x)): rows that agree with
// x on the first key and in the bucket, and differ on the second key.
func decoys(kt hashKeyType, x int) (y1, y2 int) {
	h1 := kt.hash(0, kt.value(x))
	want := kt.hash(h1, kt.value(secondKey(x))) & 0xfff
	var ys []int
	for y := 100000; len(ys) < 2; y++ {
		if kt.hash(h1, kt.value(y))&0xfff == want {
			ys = append(ys, y)
		}
	}
	return ys[0], ys[1]
}

// keyTable builds a table of rows [first key id, second key id]: column
// prefix+"k" (and prefix+"k2" with two keys) plus an int64 payload
// prefix+"id" numbering the rows.
func keyTable(t *testing.T, name, prefix string, kt hashKeyType, nKeys int, rows [][2]int) *colstore.Table {
	t.Helper()
	rowIDs := make([]int64, len(rows))
	for i := range rowIDs {
		rowIDs[i] = int64(i)
	}
	return keyTableIDs(t, name, prefix, kt, nKeys, rows, rowIDs)
}

// keyTableIDs is keyTable with the payload given.
func keyTableIDs(t *testing.T, name, prefix string, kt hashKeyType, nKeys int, rows [][2]int, rowIDs []int64) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable(name)
	k1, k2 := make([]any, len(rows)), make([]any, len(rows))
	for i, r := range rows {
		k1[i], k2[i] = kt.value(r[0]), kt.value(r[1])
	}
	if err := kt.add(tab, prefix+"k", k1); err != nil {
		t.Fatal(err)
	}
	if nKeys == 2 {
		if err := kt.add(tab, prefix+"k2", k2); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.AddColumn(prefix+"id", vector.Int64, rowIDs); err != nil {
		t.Fatal(err)
	}
	return tab
}

// orderShape is a group-by input built around the first key's order, the
// property run sealing observes: base rows in scan order, base rows
// deleted and rows inserted, both left pending.
type orderShape struct {
	name string
	rows [][2]int
	del  []int32
	tail [][2]int
}

// orderShapes generates the key-order shapes of one key type. "asc" holds
// up to 300 first keys in ascending physical order, in runs of 1-9 rows
// and one of 1030 rows that spans a batch edge at every vector size; with
// two keys a run cycles through three second keys. The others derive from
// it: "desc" reverses it, "break@P" puts a row of the smallest first key
// at position P (the first row of a batch at vector size 7 or 1024, or
// mid-batch at both), "tail" leaves it sorted and breaks the order only in
// pending inserts, and "del" deletes rows inside runs and one whole run.
// Enum keys compare by code, assigned in order of first occurrence, so
// "desc" is ascending for them.
func orderShapes(kt hashKeyType, nKeys int) []orderShape {
	ids := make([]int, min(kt.domain, 300)) // still 16-bit codes for "u16"
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int { return compareKeys(kt.value(a), kt.value(b)) })
	var asc [][2]int
	for i, x := range ids {
		n := 1 + i*37%9
		if i == len(ids)/2 {
			n = 1030
		}
		for j := 0; j < n; j++ {
			y := secondKey(x)
			if nKeys == 2 {
				y += j % 3
			}
			asc = append(asc, [2]int{x, y})
		}
	}
	first := [2]int{ids[0], secondKey(ids[0])}
	shapes := []orderShape{{name: "asc", rows: asc}, {name: "desc", rows: slices.Clone(asc)}}
	slices.Reverse(shapes[1].rows)
	for _, at := range []int{7, 1024, 1027} {
		rows := slices.Concat(asc[:at], [][2]int{first}, asc[at:])
		shapes = append(shapes, orderShape{name: fmt.Sprintf("break@%d", at), rows: rows})
	}
	third := [2]int{ids[len(ids)/3], secondKey(ids[len(ids)/3])}
	shapes = append(shapes, orderShape{name: "tail", rows: asc, tail: [][2]int{asc[len(asc)-1], first, third, third}})
	var del []int32
	for i, r := range asc {
		if i%3 == 1 || r[0] == ids[1] {
			del = append(del, int32(i))
		}
	}
	return append(shapes, orderShape{name: "del", rows: asc, del: del})
}

// compareKeys orders two key values of one type.
func compareKeys(a, b any) int {
	switch a := a.(type) {
	case int32:
		return cmp.Compare(a, b.(int32))
	case int64:
		return cmp.Compare(a, b.(int64))
	case float64:
		return cmp.Compare(a, b.(float64))
	default:
		return strings.Compare(a.(string), b.(string))
	}
}

// addOrderShape adds the table of shape sh to db, with its deletions and
// inserts pending, and returns the name of a table for MIL, which refuses
// pending deltas: the same live rows in scan order, without deltas.
func addOrderShape(t *testing.T, db *core.Database, kt hashKeyType, nKeys int, sh orderShape) string {
	t.Helper()
	name := "o-" + sh.name
	db.AddTable(keyTable(t, name, "l", kt, nKeys, sh.rows))
	if len(sh.del) == 0 && len(sh.tail) == 0 {
		return name
	}
	var live [][2]int
	var ids []int64
	for i, r := range sh.rows {
		if !slices.Contains(sh.del, int32(i)) {
			live, ids = append(live, r), append(ids, int64(i))
		}
	}
	for _, id := range sh.del {
		if err := db.Delete(name, id); err != nil {
			t.Fatal(err)
		}
	}
	for j, r := range sh.tail {
		id := int64(len(sh.rows) + j)
		row := []any{kt.value(r[0])}
		if nKeys == 2 {
			row = append(row, kt.value(r[1]))
		}
		if _, err := db.Insert(name, append(row, id)); err != nil {
			t.Fatal(err)
		}
		live, ids = append(live, r), append(ids, id)
	}
	db.AddTable(keyTableIDs(t, name+"-ref", "l", kt, nKeys, live, ids))
	return name + "-ref"
}

// TestHashTableBoundaryShapes generates the edge shapes of both hash tables
// instead of remembering a few: key types uint8/uint16 codes, int32, int64,
// float64 and string, with one and two keys, at vector sizes {1, 7, 1024}.
// The join shapes have one probe key matching more build rows than a batch
// holds (the candidate block resumes mid-chain), keys forced into one
// bucket, unmatched probe keys, an empty build and an empty probe side, and
// run every join kind. The aggregation shapes group the probe rows and
// 716/717 distinct keys, one below and one above the 0.7-load doubling of
// a 1024-bucket table, and group the key-order shapes of orderShapes, which
// seal and un-seal the group table. Every result is checked against MIL at
// parallelism 1 and 2, aggregations also at 8 (partials merge), and at
// parallelism 1 row for row against the order the hash tables promise:
// join pairs in probe-row order, build rows newest first within a probe
// row, and groups in order of first occurrence.
func TestHashTableBoundaryShapes(t *testing.T) {
	kinds := []algebra.JoinKind{algebra.Inner, algebra.LeftOuter, algebra.Semi, algebra.Anti, algebra.Mark}
	for _, kt := range hashKeyTypes() {
		for _, nKeys := range []int{1, 2} {
			rng := rand.New(rand.NewSource(int64(len(kt.name)*10 + nKeys)))
			const hot = 0
			var buildIDs, probeIDs []int
			for i := 0; i < 1024+5; i++ {
				buildIDs = append(buildIDs, hot)
			}
			for id := 1; id < kt.domain*2/3; id++ {
				for c := 0; c < id%4; c++ {
					buildIDs = append(buildIDs, id)
				}
			}
			for id := 1; id < kt.domain; id++ {
				probeIDs = append(probeIDs, id)
			}
			probeIDs = append(probeIDs, hot, hot)
			keyRows := func(ids []int) [][2]int {
				rows := make([][2]int, len(ids))
				for i, id := range ids {
					rows[i] = [2]int{id, secondKey(id)}
				}
				return rows
			}
			var buildDecoys, probeDecoys [][2]int
			switch {
			case kt.hash != nil && nKeys == 1:
				same := collidingIDs(kt, 24)
				buildIDs = append(buildIDs, same[:16]...)
				probeIDs = append(probeIDs, same[8:]...)
			case kt.hash != nil:
				for x := 1; x <= 20; x++ {
					y1, y2 := decoys(kt, x)
					buildDecoys = append(buildDecoys, [2]int{x, y1})
					probeDecoys = append(probeDecoys, [2]int{x, y2})
				}
			}
			buildRows := append(keyRows(buildIDs), buildDecoys...)
			probeRows := append(keyRows(probeIDs), probeDecoys...)
			rng.Shuffle(len(buildRows), func(i, j int) { buildRows[i], buildRows[j] = buildRows[j], buildRows[i] })
			rng.Shuffle(len(probeRows), func(i, j int) { probeRows[i], probeRows[j] = probeRows[j], probeRows[i] })
			groupIDs := func(n int) [][2]int {
				ids := make([]int, 0, 3*n)
				for i := 0; i < 3*n; i++ {
					ids = append(ids, rng.Intn(n))
				}
				for id := 0; id < n; id++ {
					ids = append(ids, id) // every id at least once
				}
				return keyRows(ids)
			}
			db := core.NewDatabase()
			db.AddTable(keyTable(t, "p", "l", kt, nKeys, probeRows))
			db.AddTable(keyTable(t, "b", "r", kt, nKeys, buildRows))
			db.AddTable(keyTable(t, "pe", "l", kt, nKeys, nil))
			db.AddTable(keyTable(t, "be", "r", kt, nKeys, nil))
			if kt.name != "u8" { // 717 distinct values need 16-bit codes
				db.AddTable(keyTable(t, "g716", "l", kt, nKeys, groupIDs(716)))
				db.AddTable(keyTable(t, "g717", "l", kt, nKeys, groupIDs(717)))
			}
			cols := func(prefix string) []string {
				if nKeys == 2 {
					return []string{prefix + "k", prefix + "k2", prefix + "id"}
				}
				return []string{prefix + "k", prefix + "id"}
			}
			on := []algebra.EquiCond{{L: "lk", R: "rk"}}
			if nKeys == 2 {
				on = append(on, algebra.EquiCond{L: "lk2", R: "rk2"})
			}
			plans := map[string]algebra.Node{}
			milTables := map[string]string{} // plan -> table MIL scans instead
			for _, kind := range kinds {
				for _, sides := range [][2]string{{"p", "b"}, {"p", "be"}, {"pe", "b"}} {
					j := algebra.NewJoinKind(kind, algebra.NewScan(sides[0], cols("l")...), algebra.NewScan(sides[1], cols("r")...), on...)
					if kind == algebra.Mark {
						j.MarkCol = "m"
					}
					plans[fmt.Sprintf("%v %s⋈%s", kind, sides[0], sides[1])] = j
				}
			}
			aggr := func(table string) algebra.Node {
				group := []algebra.NamedExpr{algebra.NE("gk", expr.C("lk"))}
				if nKeys == 2 {
					group = append(group, algebra.NE("gk2", expr.C("lk2")))
				}
				return algebra.NewAggr(algebra.NewScan(table, cols("l")...), group,
					[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("s", expr.C("lid"))}).WithMode(algebra.ModeHash)
			}
			for _, g := range []string{"p", "pe", "g716", "g717"} {
				if _, err := db.TableSchema(g); err == nil {
					plans["aggr "+g] = aggr(g)
				}
			}
			for _, sh := range orderShapes(kt, nKeys) {
				name := "aggr " + sh.name
				plans[name] = aggr("o-" + sh.name)
				milTables[name] = addOrderShape(t, db, kt, nKeys, sh)
			}
			for name, plan := range plans {
				label := fmt.Sprintf("%s keys=%d %s", kt.name, nKeys, name)
				milPlan := plan
				if table, ok := milTables[name]; ok {
					milPlan = aggr(table)
				}
				res, err := mil.New(db).Run(milPlan)
				if err != nil {
					t.Fatalf("%s: mil: %v", label, err)
				}
				want := slices.Sorted(slices.Values(rowStrings(res)))
				var order []string
				for _, row := range promisedOrder(t, db, plan) {
					order = append(order, fmt.Sprint(row))
				}
				ps := []int{1, 2}
				if _, ok := plan.(*algebra.Aggr); ok {
					ps = append(ps, 8)
				}
				for _, vs := range []int{1, 7, 1024} {
					for _, p := range ps {
						opts := core.DefaultOptions()
						opts.BatchSize, opts.Parallelism = vs, p
						got, err := core.Run(db, plan, opts)
						if err != nil {
							t.Fatalf("%s vs=%d p=%d: %v", label, vs, p, err)
						}
						rows := rowStrings(got)
						if p == 1 && !slices.Equal(rows, order) {
							t.Fatalf("%s vs=%d: rows\n%v\nwant\n%v", label, vs, rows, order)
						}
						if slices.Sort(rows); !slices.Equal(rows, want) {
							t.Fatalf("%s vs=%d p=%d: row multiset differs from MIL", label, vs, p)
						}
					}
				}
			}
		}
	}
}

// promisedOrder computes, by nested loops over the scanned tables, the rows
// a serial hash join or hash aggregation must produce, in their order.
func promisedOrder(t *testing.T, db *core.Database, plan algebra.Node) [][]any {
	t.Helper()
	scan := func(n algebra.Node) [][]any {
		res, err := core.Run(db, n, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows()
	}
	switch n := plan.(type) {
	case *algebra.Join:
		left, right := scan(n.Left), scan(n.Right)
		nk := len(n.On)
		var out [][]any
		for _, l := range left {
			matched := false
			for r := len(right) - 1; r >= 0; r-- {
				if !slices.Equal(l[:nk], right[r][:nk]) {
					continue
				}
				matched = true
				if n.Kind == algebra.Inner || n.Kind == algebra.LeftOuter {
					out = append(out, append(slices.Clone(l), right[r]...))
				}
			}
			switch {
			case n.Kind == algebra.LeftOuter && !matched:
				out = append(out, append(slices.Clone(l), zeroRow(t, db, n.Right.(*algebra.Scan))...))
			case n.Kind == algebra.Semi && matched, n.Kind == algebra.Anti && !matched:
				out = append(out, l)
			case n.Kind == algebra.Mark:
				out = append(out, append(slices.Clone(l), matched))
			}
		}
		return out
	case *algebra.Aggr:
		nk := len(n.GroupBy)
		var out [][]any
		index := map[string]int{}
		for _, row := range scan(n.Input) {
			key := fmt.Sprint(row[:nk])
			g, ok := index[key]
			if !ok {
				g = len(out)
				index[key] = g
				out = append(out, append(slices.Clone(row[:nk]), int64(0), int64(0)))
			}
			out[g][nk] = out[g][nk].(int64) + 1
			out[g][nk+1] = out[g][nk+1].(int64) + row[nk].(int64)
		}
		return out
	}
	t.Fatalf("no promised order for %T", plan)
	return nil
}

// zeroRow is the build side of a left-outer row that matched nothing: the
// zero value of every scanned column.
func zeroRow(t *testing.T, db *core.Database, sc *algebra.Scan) []any {
	t.Helper()
	schema, err := db.TableSchema(sc.Table)
	if err != nil {
		t.Fatal(err)
	}
	var row []any
	for _, c := range sc.Cols {
		switch schema[schema.ColIndex(c)].Type {
		case vector.Int32:
			row = append(row, int32(0))
		case vector.Int64:
			row = append(row, int64(0))
		case vector.Float64:
			row = append(row, float64(0))
		default:
			row = append(row, "")
		}
	}
	return row
}

func rowStrings(res *core.Result) []string {
	out := make([]string, res.NumRows())
	for i := range out {
		out[i] = fmt.Sprint(res.Row(i))
	}
	return out
}
