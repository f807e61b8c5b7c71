package core

import (
	"fmt"
	"slices"
	"time"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/delta"
	"x100/internal/expr"
	"x100/internal/vector"
)

// fetch1JoinOp fetches columns of a referenced table positionally by row id
// (Section 4.1.2): the vectorized inner loop is a gather through the row-id
// vector. Enum columns decode through their dictionary in the same pass
// (double indirection: dict[codes[rowid]]). Disk-backed columns are never
// pinned: each fetched column gathers through a colstore.FragLocator that
// resolves row ids to (fragment, offset) by binary search over the
// fragment grid and holds at most a small LRU of decoded chunks, so fetch
// joins against directories larger than RAM stay within bounded memory.
type fetch1JoinOp struct {
	input   Operator
	node    *algebra.Fetch1Join
	view    *tableView
	dsnap   *delta.Snapshot
	prog    *expr.Prog
	rowPass int // input column index when RowID is a plain column
	opts    ExecOptions
	schema  vector.Schema
	cols    []*colstore.Column
	locs    []*colstore.FragLocator
	bufs    []*vector.Vector
	// trace names, fixed at build: the operator's and each column's gather.
	name      string
	colTraces []string
}

func newFetch1JoinOp(db *Database, input Operator, node *algebra.Fetch1Join, opts ExecOptions) (*fetch1JoinOp, error) {
	v, err := opts.snaps.view(node.Table)
	if err != nil {
		return nil, err
	}
	op := &fetch1JoinOp{input: input, node: node, view: v, dsnap: v.delta, opts: opts, rowPass: -1,
		name: "Fetch1Join(" + node.Table + ")"}
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
		c := v.col(cname)
		if c == nil {
			return nil, fmt.Errorf("core: table %s has no column %q", node.Table, cname)
		}
		op.cols = append(op.cols, c)
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
	op.locs = make([]*colstore.FragLocator, len(op.cols))
	for i, c := range op.cols {
		op.bufs[i] = vector.New(c.Typ, 0)
		// One locator per fetched column per operator instance: parallel
		// plans build one fetch op per worker, so locators (like readers)
		// are single-goroutine by construction.
		op.locs[i] = c.Locator(0)
	}
	return nil
}

func (op *fetch1JoinOp) Close() error { return op.input.Close() }

func (op *fetch1JoinOp) Next() (*vector.Batch, error) {
	b, err := op.input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	t0 := time.Now()
	var ids []int32
	if op.rowPass >= 0 {
		ids = b.Vecs[op.rowPass].Int32s()
	} else {
		ids = op.prog.Run(b).Int32s()
	}
	out := &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, 0, len(op.schema)), Sel: b.Sel, N: b.N}
	out.Vecs = append(out.Vecs, b.Vecs...)
	hasDelta := op.dsnap.NumDeltaRows() > 0
	for ci, col := range op.cols {
		dst := op.bufs[ci]
		if dst.Len() < b.N {
			dst = vector.New(col.Typ, b.N)
			op.bufs[ci] = dst
		}
		v := dst.Slice(0, b.N)
		v.Typ = col.Typ
		tr := op.opts.Tracer.Now()
		if hasDelta {
			err = op.fetchWithDelta(v, ci, ids, b.Sel, b.N)
		} else {
			err = op.locs[ci].Gather(v, ids, b.Sel, b.N)
		}
		if err != nil {
			return nil, err
		}
		op.opts.Tracer.RecordPrimitiveSince(op.colTraces[ci], tr, b.Rows(), (4+col.Typ.Width())*b.Rows())
		out.Vecs = append(out.Vecs, v)
	}
	op.opts.Tracer.RecordOperator(op.name, b.Rows(), time.Since(t0))
	return out, nil
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
	switch col.Typ.Physical() {
	case vector.Bool:
		gatherLoop(dst.Bools(), col.Data().([]bool), ids, sel, n)
	case vector.UInt8:
		gatherLoop(dst.UInt8s(), col.Data().([]uint8), ids, sel, n)
	case vector.UInt16:
		gatherLoop(dst.UInt16s(), col.Data().([]uint16), ids, sel, n)
	case vector.Int32:
		gatherLoop(dst.Int32s(), col.Data().([]int32), ids, sel, n)
	case vector.Int64:
		gatherLoop(dst.Int64s(), col.Data().([]int64), ids, sel, n)
	case vector.Float64:
		gatherLoop(dst.Float64s(), col.Data().([]float64), ids, sel, n)
	case vector.String:
		gatherLoop(dst.Strings(), col.Data().([]string), ids, sel, n)
	}
	return nil
}

func gatherLoop[T any](dst []T, base []T, ids []int32, sel []int32, n int) {
	if sel != nil {
		for _, i := range sel {
			dst[i] = base[ids[i]]
		}
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = base[ids[i]]
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

// fetchWithDelta is the slow path when the referenced table has pending
// inserts: row ids at or beyond the captured base resolve into the delta
// snapshot, base ids resolve value-at-a-time through the column's locator
// (still never pinning).
func (op *fetch1JoinOp) fetchWithDelta(dst *vector.Vector, ci int, ids []int32, sel []int32, n int) error {
	baseN := op.view.n
	col := op.cols[ci]
	loc := op.locs[ci]
	ti := 0
	for i, c := range op.view.cols {
		if c == col {
			ti = i
			break
		}
	}
	get := func(id int32) (any, error) {
		if int(id) < baseN {
			return loc.Value(int(id))
		}
		return op.dsnap.DeltaValue(ti, int(id)-baseN), nil
	}
	if sel != nil {
		for _, i := range sel {
			v, err := get(ids[i])
			if err != nil {
				return err
			}
			dst.Set(int(i), v)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		v, err := get(ids[i])
		if err != nil {
			return err
		}
		dst.Set(i, v)
	}
	return nil
}

// fetchNJoinOp expands each input row into the contiguous range of
// referenced-table rows given by a range index, fetching columns
// positionally (the FetchNJoin of Section 4.1.2). Like Fetch1Join it
// gathers through per-column FragLocators, so disk-backed fetch targets
// decode at most a few chunks at a time instead of pinning.
type fetchNJoinOp struct {
	input    Operator
	node     *algebra.FetchNJoin
	view     *tableView
	del      []int32 // the fetch target's ascending deletion list
	delPos   int     // first deletion >= curFetch within the current range
	ranges   *rangeLookup
	opts     ExecOptions
	schema   vector.Schema
	rangeCol int
	cols     []*colstore.Column
	locs     []*colstore.FragLocator

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
		return nil, fmt.Errorf("core: no range index registered for table %s", node.Table)
	}
	in := input.Schema()
	rc := in.ColIndex(node.RangeOf)
	if rc < 0 {
		return nil, fmt.Errorf("core: fetchnjoin input has no column %q", node.RangeOf)
	}
	op := &fetchNJoinOp{
		input: input, node: node, view: v,
		ranges: &rangeLookup{starts: ri.Starts}, opts: opts, rangeCol: rc,
	}
	op.del = v.delta.SortedDeleted()
	op.schema = in.Clone()
	for i, cname := range node.Cols {
		c := v.col(cname)
		if c == nil {
			return nil, fmt.Errorf("core: table %s has no column %q", node.Table, cname)
		}
		op.cols = append(op.cols, c)
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
	op.locs = make([]*colstore.FragLocator, len(op.cols))
	for i, c := range op.cols {
		op.locs[i] = c.Locator(0)
	}
	return op.input.Open()
}

func (op *fetchNJoinOp) Close() error { return op.input.Close() }

func (op *fetchNJoinOp) Next() (*vector.Batch, error) {
	t0 := time.Now()
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
	hasDelta := op.view.delta.NumDeltaRows() > 0
	for i, col := range op.cols {
		v := vector.New(col.Typ, k)
		var err error
		if hasDelta {
			err = op.fetchWithDelta(v, i, op.fetchIdx, k)
		} else {
			err = op.locs[i].Gather(v, op.fetchIdx, nil, k)
		}
		if err != nil {
			return nil, err
		}
		v.Typ = col.Typ
		out.Vecs[nl+i] = v
	}
	op.opts.Tracer.RecordOperator("FetchNJoin("+op.node.Table+")", k, time.Since(t0))
	return out, nil
}

// fetchWithDelta mirrors fetch1JoinOp.fetchWithDelta: a range index derived
// while the referenced table had pending inserts addresses delta-resident
// rows past the captured base, which resolve through the delta snapshot.
func (op *fetchNJoinOp) fetchWithDelta(dst *vector.Vector, ci int, ids []int32, n int) error {
	baseN := op.view.n
	col := op.cols[ci]
	loc := op.locs[ci]
	ti := 0
	for i, c := range op.view.cols {
		if c == col {
			ti = i
			break
		}
	}
	for i := 0; i < n; i++ {
		id := ids[i]
		if int(id) < baseN {
			v, err := loc.Value(int(id))
			if err != nil {
				return err
			}
			dst.Set(i, v)
			continue
		}
		dst.Set(i, op.view.delta.DeltaValue(ti, int(id)-baseN))
	}
	return nil
}
