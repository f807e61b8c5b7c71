package core

import (
	"fmt"
	"slices"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// fetchCols gathers the fetched columns of a fetch join's target table by
// row id. Disk-backed columns are never pinned: base ids gather through one
// colstore.FragLocator per column, which resolves row ids to (fragment,
// offset) by binary search over the fragment grid and holds at most a small
// LRU of decoded chunks, so fetch joins against directories larger than RAM
// stay within bounded memory. Ids past the view's base address its pending
// inserts and gather from the frozen snapshot's delta vectors.
type fetchCols struct {
	view  *tableView
	cols  []*colstore.Column
	locs  []*colstore.FragLocator
	tails []*vector.Vector // each column's insert tail; nil without one
	// split's result for the current batch: its base and tail positions,
	// and at tail positions the ids rebased into the tail.
	baseSel, tailSel, tailIDs []int32
}

// total is the number of row ids the view addresses: base and insert tail.
func (f *fetchCols) total() int { return f.view.n + f.view.delta.NumDeltaRows() }

// add resolves a fetched column of the view by name, with its insert tail.
func (f *fetchCols) add(name string) (*colstore.Column, error) {
	ti := f.view.colIndex(name)
	if ti < 0 {
		return nil, fmt.Errorf("core: table %s has no column %q", f.view.name, name)
	}
	f.cols = append(f.cols, f.view.cols[ti])
	if n := f.view.delta.NumDeltaRows(); n > 0 {
		f.tails = append(f.tails, f.view.delta.DeltaVector(ti, 0, n))
	}
	return f.view.cols[ti], nil
}

// open creates one locator per fetched column per operator instance:
// parallel plans build one fetch op per worker, so locators (like readers)
// are single-goroutine by construction.
func (f *fetchCols) open() {
	f.locs = make([]*colstore.FragLocator, len(f.cols))
	for i, c := range f.cols {
		f.locs[i] = c.Locator(0)
	}
}

// split sorts the live positions of ids (sel, else [0,n)) into base and
// tail positions for the gathers of one batch. An id past the tail's end
// is an error.
func (f *fetchCols) split(ids, sel []int32, n int) error {
	if f.tails == nil {
		return nil
	}
	baseN, end := int32(f.view.n), int32(f.total())
	if len(f.tailIDs) < n {
		f.tailIDs = make([]int32, n)
	}
	f.baseSel, f.tailSel = f.baseSel[:0], f.tailSel[:0]
	live := n
	if sel != nil {
		live = len(sel)
	}
	for j := range live {
		i := int32(j)
		if sel != nil {
			i = sel[j]
		}
		switch id := ids[i]; {
		case id < baseN:
			f.baseSel = append(f.baseSel, i)
		case id < end:
			f.tailSel = append(f.tailSel, i)
			f.tailIDs[i] = id - baseN
		default:
			return fmt.Errorf("core: fetch from %s: row id %d out of range [0, %d)", f.view.name, id, end)
		}
	}
	return nil
}

// gather fills dst with column ci's values at ids for the live positions
// (sel, else [0,n)) of the batch last split.
func (f *fetchCols) gather(ci int, dst *vector.Vector, ids, sel []int32, n int) error {
	if len(f.tailSel) == 0 {
		return f.locs[ci].Gather(dst, ids, sel, n)
	}
	if len(f.baseSel) > 0 {
		if err := f.locs[ci].Gather(dst, ids, f.baseSel, n); err != nil {
			return err
		}
	}
	gatherCol(dst, f.tails[ci], f.tailIDs, f.tailSel, n)
	return nil
}

// fetch1JoinOp fetches columns of a referenced table positionally by row id
// (Section 4.1.2): the vectorized inner loop is a gather through the row-id
// vector. Enum columns decode through their dictionary in the same pass
// (double indirection: dict[codes[rowid]]). It is an inner join: an input
// row whose row id is negative (a reference with no match) or addresses a
// row deleted in the target's snapshot is dropped.
type fetch1JoinOp struct {
	fetchCols
	input   Operator
	node    *algebra.Fetch1Join
	prog    *expr.Prog
	rowPass int // input column index when RowID is a plain column
	opts    ExecOptions
	schema  vector.Schema
	bufs    []*vector.Vector
	// deleted marks the target's deleted row ids, one bit each; nil when
	// the snapshot has no deletions.
	deleted []uint64
	liveSel []int32 // dropDead's narrowed selection for the current batch
	// trace names, fixed at build: the operator's and each column's gather.
	name      string
	colTraces []string
}

func newFetch1JoinOp(db *Database, input Operator, node *algebra.Fetch1Join, opts ExecOptions) (*fetch1JoinOp, error) {
	if err := db.CheckJoinIndex(node.Table, node.RowID); err != nil {
		return nil, err
	}
	v, err := opts.snaps.view(node.Table)
	if err != nil {
		return nil, err
	}
	op := &fetch1JoinOp{fetchCols: fetchCols{view: v}, input: input, node: node, opts: opts, rowPass: -1,
		name: "Fetch1Join(" + node.Table + ")"}
	if del := v.delta.SortedDeleted(); len(del) > 0 {
		op.deleted = make([]uint64, (op.total()+63)/64)
		for _, id := range del {
			op.deleted[id>>6] |= 1 << (id & 63)
		}
	}
	in := input.Schema()
	if c, ok := node.RowID.(*expr.Col); ok {
		if i := in.ColIndex(c.Name); i >= 0 && in[i].Type.Physical() == vector.Int32 {
			op.rowPass = i
		}
	}
	if op.rowPass < 0 {
		prog, err := expr.Compile(node.RowID, in, opts.exprOptions())
		if err != nil {
			return nil, err
		}
		if prog.OutType().Physical() != vector.Int32 {
			return nil, fmt.Errorf("core: fetch1join rowid type %v, want int32", prog.OutType())
		}
		op.prog = prog
	}
	op.schema = in.Clone()
	for i, cname := range node.Cols {
		c, err := op.add(cname)
		if err != nil {
			return nil, err
		}
		op.colTraces = append(op.colTraces, fmt.Sprintf("map_fetch_sint_col_%s_col", typeAbbrevCore(c.Typ)))
		name := cname
		if i < len(node.As) && node.As[i] != "" {
			name = node.As[i]
		}
		op.schema = append(op.schema, vector.Field{Name: name, Type: c.Typ})
	}
	return op, nil
}

func (op *fetch1JoinOp) Schema() vector.Schema { return op.schema }

func (op *fetch1JoinOp) Open() error {
	if err := op.input.Open(); err != nil {
		return err
	}
	op.bufs = make([]*vector.Vector, len(op.cols))
	for i, c := range op.cols {
		op.bufs[i] = vector.New(c.Typ, 0)
	}
	op.open()
	return nil
}

func (op *fetch1JoinOp) Close() error { return op.input.Close() }

func (op *fetch1JoinOp) Next() (*vector.Batch, error) {
	for {
		b, err := op.input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		t0 := op.opts.Tracer.Now()
		var ids []int32
		if op.rowPass >= 0 {
			ids = b.Vecs[op.rowPass].Int32s()
		} else {
			ids = op.prog.Run(b).Int32s()
		}
		sel := op.dropDead(ids, b.Sel, b.N)
		if sel != nil && len(sel) == 0 {
			op.opts.Tracer.RecordOperatorSince(op.name, 0, t0)
			continue // every row's target is gone; pull the next batch
		}
		out := &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, 0, len(op.schema)), Sel: sel, N: b.N}
		out.Vecs = append(out.Vecs, b.Vecs...)
		if err := op.split(ids, sel, b.N); err != nil {
			return nil, err
		}
		for ci, col := range op.cols {
			dst := op.bufs[ci]
			if dst.Len() < b.N {
				dst = vector.New(col.Typ, b.N)
				op.bufs[ci] = dst
			}
			v := dst.Slice(0, b.N)
			v.Typ = col.Typ
			tr := op.opts.Tracer.Now()
			if err := op.gather(ci, v, ids, sel, b.N); err != nil {
				return nil, err
			}
			op.opts.Tracer.RecordPrimitiveSince(op.colTraces[ci], tr, out.Rows(), (4+col.Typ.Width())*out.Rows())
			out.Vecs = append(out.Vecs, v)
		}
		op.opts.Tracer.RecordOperatorSince(op.name, out.Rows(), t0)
		return out, nil
	}
}

// dropDead narrows the live positions of a batch (sel, else [0,n)) to the
// rows whose row id addresses a live target row: a negative id and the id
// of a row deleted in the target's snapshot drop their row. Without
// deletions in the target the only cost is one pass looking for a negative
// id, and sel comes back unchanged when nothing drops. Ids past the
// target's end are kept, for the gather to reject.
func (op *fetch1JoinOp) dropDead(ids, sel []int32, n int) []int32 {
	if op.deleted == nil && !anyNegative(ids, sel, n) {
		return sel
	}
	live := op.liveSel[:0]
	if live == nil {
		live = make([]int32, 0, n) // non-nil: a nil selection means every row
	}
	keep := func(id int32) bool {
		if id < 0 {
			return false
		}
		w := int(id >> 6)
		return w >= len(op.deleted) || op.deleted[w]&(1<<(id&63)) == 0
	}
	if sel != nil {
		for _, i := range sel {
			if keep(ids[i]) {
				live = append(live, i)
			}
		}
	} else {
		for i, id := range ids[:n] {
			if keep(id) {
				live = append(live, int32(i))
			}
		}
	}
	op.liveSel = live
	return live
}

// FetchColumn gathers col values (decoding enums) at the given row ids into
// dst, for the live positions. It is exported for the baseline engines,
// which perform the same positional joins on whole pinned columns; the
// vectorized fetch operators gather through FragLocators instead and never
// pin. Pinning a disk-backed column can fail (e.g. a corrupt chunk), which
// surfaces as a returned error rather than a panic out of Data.
func FetchColumn(dst *vector.Vector, col *colstore.Column, ids []int32, sel []int32, n int) error {
	if _, err := col.Pin(); err != nil {
		return fmt.Errorf("core: fetch %s: %w", col.Name, err)
	}
	if col.IsEnum() {
		fetchEnum(dst, col, ids, sel, n)
		return nil
	}
	gatherCol(dst, vector.FromAny(col.Typ, col.Data()), ids, sel, n)
	return nil
}

// gatherCol gathers src[ids[i]] into dst for the live positions (sel, else
// [0,n)), typed by the vectors' common physical type.
func gatherCol(dst, src *vector.Vector, ids []int32, sel []int32, n int) {
	switch dst.Typ.Physical() {
	case vector.Bool:
		primitives.GatherCol(dst.Bools()[:n], src.Bools(), ids, sel)
	case vector.UInt8:
		primitives.GatherCol(dst.UInt8s()[:n], src.UInt8s(), ids, sel)
	case vector.UInt16:
		primitives.GatherCol(dst.UInt16s()[:n], src.UInt16s(), ids, sel)
	case vector.Int32:
		primitives.GatherCol(dst.Int32s()[:n], src.Int32s(), ids, sel)
	case vector.Int64:
		primitives.GatherCol(dst.Int64s()[:n], src.Int64s(), ids, sel)
	case vector.Float64:
		primitives.GatherCol(dst.Float64s()[:n], src.Float64s(), ids, sel)
	case vector.String:
		primitives.GatherCol(dst.Strings()[:n], src.Strings(), ids, sel)
	}
}

func fetchEnum(dst *vector.Vector, col *colstore.Column, ids []int32, sel []int32, n int) {
	if col.Dict.Typ == vector.Float64 {
		out := dst.Float64s()
		base := col.Dict.Floats()
		switch codes := col.Data().(type) {
		case []uint8:
			enumGather(out, base, codes, ids, sel, n)
		case []uint16:
			enumGather(out, base, codes, ids, sel, n)
		}
		return
	}
	out := dst.Strings()
	base := col.Dict.Strings()
	switch codes := col.Data().(type) {
	case []uint8:
		enumGather(out, base, codes, ids, sel, n)
	case []uint16:
		enumGather(out, base, codes, ids, sel, n)
	}
}

func enumGather[T any, C uint8 | uint16](dst []T, base []T, codes []C, ids []int32, sel []int32, n int) {
	if sel != nil {
		for _, i := range sel {
			dst[i] = base[codes[ids[i]]]
		}
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = base[codes[ids[i]]]
	}
}

// anyNegative reports whether a live position (sel, else [0,n)) holds a
// negative id.
func anyNegative(ids, sel []int32, n int) bool {
	if sel != nil {
		for _, i := range sel {
			if ids[i] < 0 {
				return true
			}
		}
		return false
	}
	for _, id := range ids[:n] {
		if id < 0 {
			return true
		}
	}
	return false
}

// fetchNJoinOp expands each input row into the contiguous range of
// referenced-table rows given by a range index, fetching columns
// positionally (the FetchNJoin of Section 4.1.2), gathering like
// Fetch1Join.
type fetchNJoinOp struct {
	fetchCols
	input    Operator
	node     *algebra.FetchNJoin
	name     string  // trace name, fixed at build
	del      []int32 // the fetch target's ascending deletion list
	delPos   int     // first deletion >= curFetch within the current range
	ranges   *rangeLookup
	opts     ExecOptions
	schema   vector.Schema
	rangeCol int

	curBatch  *vector.Batch
	lastBatch *vector.Batch
	curLive   int
	curFetch  int32 // next referenced row within current range (-1 = start)
	curHi     int32
	leftIdx   []int32
	fetchIdx  []int32
}

type rangeLookup struct{ starts []int32 }

// rng returns the referenced-row range of id. Ids beyond the index (rows
// the referencing table gained after the index was derived) map to an
// empty range rather than a panic.
func (r *rangeLookup) rng(id int32) (int32, int32) {
	if int(id)+1 >= len(r.starts) {
		return 0, 0
	}
	return r.starts[id], r.starts[id+1]
}

func newFetchNJoinOp(db *Database, input Operator, node *algebra.FetchNJoin, opts ExecOptions) (*fetchNJoinOp, error) {
	v, err := opts.snaps.view(node.Table)
	if err != nil {
		return nil, err
	}
	ri := v.rangeIndexAny()
	if ri == nil {
		return nil, fmt.Errorf("core: fetchnjoin: %w", db.RangeIndexError(node.Table))
	}
	in := input.Schema()
	rc := in.ColIndex(node.RangeOf)
	if rc < 0 {
		return nil, fmt.Errorf("core: fetchnjoin input has no column %q", node.RangeOf)
	}
	op := &fetchNJoinOp{
		fetchCols: fetchCols{view: v}, input: input, node: node, name: "FetchNJoin(" + node.Table + ")",
		ranges: &rangeLookup{starts: ri.Starts}, opts: opts, rangeCol: rc,
	}
	op.del = v.delta.SortedDeleted()
	op.schema = in.Clone()
	for i, cname := range node.Cols {
		c, err := op.add(cname)
		if err != nil {
			return nil, err
		}
		name := cname
		if i < len(node.As) && node.As[i] != "" {
			name = node.As[i]
		}
		op.schema = append(op.schema, vector.Field{Name: name, Type: c.Typ})
	}
	return op, nil
}

func (op *fetchNJoinOp) Schema() vector.Schema { return op.schema }

func (op *fetchNJoinOp) Open() error {
	op.curBatch = nil
	op.curLive = 0
	op.curFetch = -1
	bs := op.opts.batchSize()
	op.leftIdx = make([]int32, 0, bs)
	op.fetchIdx = make([]int32, 0, bs)
	op.open()
	return op.input.Open()
}

func (op *fetchNJoinOp) Close() error { return op.input.Close() }

func (op *fetchNJoinOp) Next() (*vector.Batch, error) {
	t0 := op.opts.Tracer.Now()
	bs := op.opts.batchSize()
	op.leftIdx = op.leftIdx[:0]
	op.fetchIdx = op.fetchIdx[:0]
	for len(op.leftIdx) < bs {
		if op.curBatch == nil {
			if len(op.leftIdx) > 0 {
				break
			}
			b, err := op.input.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			op.curBatch = b
			op.curLive = 0
			op.curFetch = -1
		}
		b := op.curBatch
		if op.curLive >= b.Rows() {
			op.lastBatch = b
			op.curBatch = nil
			continue
		}
		pos := b.LiveRow(op.curLive)
		if op.curFetch < 0 {
			id := b.Vecs[op.rangeCol].Int32s()[pos]
			op.curFetch, op.curHi = op.ranges.rng(id)
			op.delPos, _ = slices.BinarySearch(op.del, op.curFetch)
		}
		for op.curFetch < op.curHi && len(op.leftIdx) < bs {
			if op.delPos < len(op.del) && op.del[op.delPos] == op.curFetch {
				op.delPos++
				op.curFetch++
				continue
			}
			op.leftIdx = append(op.leftIdx, int32(pos))
			op.fetchIdx = append(op.fetchIdx, op.curFetch)
			op.curFetch++
		}
		if op.curFetch >= op.curHi {
			op.curLive++
			op.curFetch = -1
		}
	}
	if len(op.leftIdx) == 0 {
		return nil, nil
	}
	b := op.curBatch
	if b == nil {
		b = op.lastBatch
	}
	nl := len(b.Vecs)
	k := len(op.leftIdx)
	out := &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, len(op.schema)), N: k}
	for c := 0; c < nl; c++ {
		v := vector.New(op.schema[c].Type, k)
		v.Gather(b.Vecs[c], op.leftIdx)
		v.Typ = op.schema[c].Type
		out.Vecs[c] = v
	}
	if err := op.split(op.fetchIdx, nil, k); err != nil {
		return nil, err
	}
	for i, col := range op.cols {
		v := vector.New(col.Typ, k)
		if err := op.gather(i, v, op.fetchIdx, nil, k); err != nil {
			return nil, err
		}
		v.Typ = col.Typ
		out.Vecs[nl+i] = v
	}
	op.opts.Tracer.RecordOperatorSince(op.name, k, t0)
	return out, nil
}
