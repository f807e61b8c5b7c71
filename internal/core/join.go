package core

import (
	"fmt"
	"sync"

	"x100/internal/algebra"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// joinBuild is the hash-join build state: the materialized build side plus
// its chained hash table. It is built once per plan — by the first prober
// (the sync.Once), while the rest wait — and is immutable afterwards, so
// the probe pipelines of all workers probe it concurrently and a re-Opened
// plan probes it again.
type joinBuild struct {
	// in is the build side: one pipeline, or the pipelines of a
	// partitionable right input, whose workers drain, hash and insert in
	// parallel.
	in        *fragment
	rightKeys []int
	// keyXlat, when non-nil for key i, maps the build side's dictionary
	// codes into the probe side's code domain (-1 = value absent from the
	// probe dictionary, can never match). It keeps both sides of a
	// code-domain join hashing and comparing narrow codes even though the
	// two columns carry distinct dictionaries.
	keyXlat [][]int32
	once    sync.Once
	err     error

	rbuild []*colBuilder // all right columns
	// vecs wraps rbuild as vectors once the build is drained: the sources
	// of key verification and of the build-side output gather.
	vecs    []*vector.Vector
	buckets []int32 // head row id + 1
	next    []int32 // chain
	mask    uint64
	nRight  int
}

// hashRows bulk-hashes build rows [lo,hi) over the join keys into
// hashes[lo:hi] with the vectorized width kernels, translating code-domain
// keys into the probe dictionary first. Equivalent to folding hashCombine
// row-at-a-time from 0 (HashCombineValueInt(0, v) == HashValueInt(v)).
func (jb *joinBuild) hashRows(hashes []uint64, lo, hi int) error {
	h := hashes[lo:hi]
	var scratch []int64
	for i, ki := range jb.rightKeys {
		cb := jb.rbuild[ki]
		if i < len(jb.keyXlat) && jb.keyXlat[i] != nil {
			// Translated codes hash as their uint32 bit pattern (-1 =
			// absent-from-probe maps to 0xffffffff, matching the probe
			// side's code domain never).
			if scratch == nil {
				scratch = make([]int64, hi-lo)
			}
			x := jb.keyXlat[i]
			if cb.typ.Physical() == vector.UInt8 {
				for j, c := range cb.u8[lo:hi] {
					scratch[j] = int64(uint32(x[c]))
				}
			} else {
				for j, c := range cb.u16[lo:hi] {
					scratch[j] = int64(uint32(x[c]))
				}
			}
			if i == 0 {
				primitives.HashInt(h, scratch, nil)
			} else {
				primitives.HashCombineInt(h, scratch, nil)
			}
			continue
		}
		if err := hashVector(h, cb.slice(lo, hi), nil, i == 0); err != nil {
			return err
		}
	}
	return nil
}

// run materializes the build side on first call; subsequent (possibly
// concurrent) calls return the first call's outcome.
func (jb *joinBuild) run(opts ExecOptions) error {
	jb.once.Do(func() { jb.err = jb.build(opts) })
	return jb.err
}

func (jb *joinBuild) build(opts ExecOptions) error {
	t0 := opts.Tracer.Now()
	if err := jb.drain(); err != nil {
		return err
	}
	if len(jb.rbuild) > 0 {
		jb.nRight = jb.rbuild[0].len()
	}
	jb.vecs = make([]*vector.Vector, len(jb.rbuild))
	for i, cb := range jb.rbuild {
		jb.vecs[i] = cb.vec()
	}
	if err := jb.index(); err != nil {
		return err
	}
	jb.in.mergeTracers(opts.Tracer)
	opts.Tracer.RecordOperatorSince("HashJoin(build)", jb.nRight, t0)
	return nil
}

// drain materializes the build side: each worker drains its pipeline into
// private builders (no shared state, no locks), then the parts concatenate
// in worker order. With several workers row order — and therefore chain
// order — depends on the morsel race, so parallel builds are
// multiset-equivalent to serial ones, not row-identical.
func (jb *joinBuild) drain() error {
	life := jb.in.opts.life
	rs := jb.in.parts[0].Schema()
	parts := make([][]*colBuilder, len(jb.in.parts))
	err := jb.in.runWorkers(len(parts), func(w int) error {
		p := jb.in.parts[w]
		if err := p.Open(); err != nil {
			return err
		}
		defer p.Close()
		cols := make([]*colBuilder, len(rs))
		for i, f := range rs {
			cols[i] = newColBuilder(f.Type)
		}
		parts[w] = cols
		for {
			if err := life.check(); err != nil {
				return err
			}
			b, err := p.Next()
			if err != nil {
				return err
			}
			if b == nil {
				return nil
			}
			for i, v := range b.Vecs {
				cols[i].appendVec(v, b.Sel, b.N)
			}
			life.reserve(batchBytes(len(rs), b.Rows()))
		}
	})
	if err != nil {
		return err
	}
	jb.rbuild = parts[0]
	for _, cols := range parts[1:] {
		for i := range jb.rbuild {
			jb.rbuild[i].appendBuilder(cols[i])
		}
	}
	return nil
}

// index hashes all build rows with the bulk width kernels and links the
// chained hash table. A partitioned build of at least 1<<14 rows splits the
// hash pass into disjoint row ranges and the insert pass into disjoint
// bucket ranges, one per worker — every worker scans the hash array but
// only writes buckets it owns, and rows insert in ascending order per
// bucket, so the resulting chains are exactly the serial ones.
func (jb *joinBuild) index() error {
	life := jb.in.opts.life
	// Size the table to ~2x rows, power of two.
	sz := 1024
	for sz < jb.nRight*2 {
		sz *= 2
	}
	// Charge the hash table (buckets + chain + hash scratch) before
	// allocating; a budget violation surfaces at the check below.
	life.reserve(int64(sz)*4 + int64(jb.nRight)*12)
	if err := life.check(); err != nil {
		return err
	}
	jb.buckets = make([]int32, sz)
	jb.mask = uint64(sz - 1)
	jb.next = make([]int32, jb.nRight)
	if jb.nRight == 0 {
		return nil
	}
	hashes := make([]uint64, jb.nRight)
	nw := len(jb.in.parts)
	if jb.nRight < 1<<14 {
		nw = 1
	}
	chunk := (jb.nRight + nw - 1) / nw
	if err := jb.in.runWorkers(nw, func(w int) error {
		lo, hi := w*chunk, min((w+1)*chunk, jb.nRight)
		if lo >= hi {
			return nil
		}
		return jb.hashRows(hashes, lo, hi)
	}); err != nil {
		return err
	}
	// A worker cancelled while queued for its slot leaves its bucket range
	// unlinked; runWorkers then reports the cancellation, so no prober can
	// read the partial table.
	return jb.in.runWorkers(nw, func(w int) error {
		slo := uint64(w) * uint64(sz) / uint64(nw)
		shi := uint64(w+1) * uint64(sz) / uint64(nw)
		for r := 0; r < jb.nRight; r++ {
			slot := hashes[r] & jb.mask
			if slot >= slo && slot < shi {
				jb.next[r] = jb.buckets[slot] - 1
				jb.buckets[slot] = int32(r) + 1
			}
		}
		return nil
	})
}

// hashJoinOp implements the Join operator for equi-conditions. The right
// (build) side is drained into columnar builders and indexed by a chained
// hash table; left (probe) batches are hashed vector-at-a-time and probed a
// block of candidate pairs at a time (see candidates and verify). Kinds:
// inner, semi, anti, leftouter, mark (Section 4.1.2 lists Join over
// left-deep plans; semi/anti/mark are the decorrelation workhorses for the
// TPC-H plans).
type hashJoinOp struct {
	left   Operator
	node   *algebra.Join
	opts   ExecOptions
	schema vector.Schema
	name   string // trace name of the semi/anti/mark probe

	leftKeys  []int // column indices in left schema
	rightKeys []int // column indices in right schema
	// keyXlat mirrors joinBuild.keyXlat: per key, the build-code ->
	// probe-code translation of a code-domain join key (nil = plain key).
	keyXlat [][]int32

	// bld is the build side, shared by the probe pipelines of all workers.
	bld      *joinBuild
	residual expr.Scalar // optional, over concatenated schema

	// Probe state: the current left batch, the hashes of its rows and the
	// chain heads of its live rows. Expansion resumes at live row `live`,
	// chain entry `chain` (-1: that row's chain is exhausted).
	cur     *vector.Batch
	hashBuf []uint64
	heads   []int32
	live    int
	chain   int32
	matched bool // live row `live` has a match (left-outer)

	// One block of candidate pairs (probe position, build row) and sel, the
	// indexes of the pairs still passing verification.
	candPos, candRow, sel []int32

	// Reused output: the pairs to emit, the semi/anti/mark selection and
	// match flags, and the output batch with its vectors.
	leftIdx, rightIdx []int32
	outSel            []int32
	hit               []bool
	out               *vector.Batch
}

func newHashJoinOp(left Operator, jb *joinBuild, node *algebra.Join, opts ExecOptions) (*hashJoinOp, error) {
	ls, rs := left.Schema(), jb.in.parts[0].Schema()
	op := &hashJoinOp{left: left, bld: jb, node: node, opts: opts, name: fmt.Sprintf("HashJoin(%s)", node.Kind)}
	codeKeys := make(map[int]codeJoinKey)
	for _, ck := range opts.codeJoins[node] {
		codeKeys[ck.idx] = ck
	}
	op.keyXlat = make([][]int32, len(node.On))
	for i, c := range node.On {
		li := ls.ColIndex(c.L)
		ri := rs.ColIndex(c.R)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("core: join key %s=%s not found", c.L, c.R)
		}
		ck, isCode := codeKeys[i]
		if isCode && narrowCode(ls[li].Type) && narrowCode(rs[ri].Type) {
			// Code-domain key: the two sides carry distinct dictionaries
			// (possibly of different code widths); build the build-side ->
			// probe-side code translation once.
			rvals := ck.rdict.Strings()
			xlat := make([]int32, len(rvals))
			for rc, v := range rvals {
				lc, found := ck.ldict.Lookup(v)
				if !found {
					lc = -1
				}
				xlat[rc] = int32(lc)
			}
			op.keyXlat[i] = xlat
		} else if ls[li].Type.Physical() != rs[ri].Type.Physical() {
			return nil, fmt.Errorf("core: join key type mismatch %v vs %v", ls[li].Type, rs[ri].Type)
		}
		op.leftKeys = append(op.leftKeys, li)
		op.rightKeys = append(op.rightKeys, ri)
	}
	switch node.Kind {
	case algebra.Semi, algebra.Anti:
		op.schema = ls.Clone()
	case algebra.Mark:
		op.schema = append(ls.Clone(), vector.Field{Name: node.MarkCol, Type: vector.Bool})
	default:
		op.schema = append(ls.Clone(), rs.Clone()...)
	}
	op.out = &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, len(op.schema))}
	if node.Kind == algebra.Inner || node.Kind == algebra.LeftOuter {
		for c, f := range op.schema {
			op.out.Vecs[c] = vector.New(f.Type, 0)
		}
	}
	if node.Residual != nil {
		combined := append(ls.Clone(), rs.Clone()...)
		sc, _, err := expr.Bind(node.Residual, combined)
		if err != nil {
			return nil, err
		}
		op.residual = sc
	}
	jb.rightKeys, jb.keyXlat = op.rightKeys, op.keyXlat
	return op, nil
}

// narrowCode reports whether a join key type is a dictionary code vector.
func narrowCode(t vector.Type) bool {
	p := t.Physical()
	return p == vector.UInt8 || p == vector.UInt16
}

func (op *hashJoinOp) Schema() vector.Schema { return op.schema }

func (op *hashJoinOp) Open() error {
	if err := op.left.Open(); err != nil {
		return err
	}
	op.cur = nil
	return nil
}

// Close closes the probe side; the build side's pipelines close as soon as
// the build has drained them.
func (op *hashJoinOp) Close() error { return op.left.Close() }

// pull fetches the next left batch, hashes its key columns and looks up the
// chain head of every live row; op.cur is nil at the end of the input.
func (op *hashJoinOp) pull() error {
	b, err := op.left.Next()
	if err != nil || b == nil {
		op.cur = nil
		return err
	}
	op.hashBuf = resize(op.hashBuf, b.N)
	for i, ki := range op.leftKeys {
		if err := hashVector(op.hashBuf, b.Vecs[ki], b.Sel, i == 0); err != nil {
			return err
		}
	}
	n := b.Rows()
	heads := resize(op.heads, n)
	buckets, mask, h := op.bld.buckets, op.bld.mask, op.hashBuf
	if b.Sel != nil {
		for k, p := range b.Sel {
			heads[k] = buckets[h[p]&mask] - 1
		}
	} else {
		for k := range heads {
			heads[k] = buckets[h[k]&mask] - 1
		}
	}
	op.cur, op.heads, op.live, op.matched = b, heads, 0, false
	if n > 0 {
		op.chain = heads[0]
	}
	return nil
}

// exhausted reports whether every live row of the current batch has been
// expanded (true when there is no current batch).
func (op *hashJoinOp) exhausted() bool { return op.cur == nil || op.live >= op.cur.Rows() }

// candidates fills one block of at most limit candidate pairs — every
// build row on the chain of a live row, in probe-row order and chain order
// within a row, resuming mid-chain where the previous block stopped — and
// selects all of them for verification. With ends, each row whose chain
// is complete also gets a (row, -1) end marker, which is not selected.
func (op *hashJoinOp) candidates(limit int, ends bool) {
	b, next, heads := op.cur, op.bld.next, op.heads
	nLive := b.Rows()
	live, r := op.live, op.chain
	candPos, candRow, sel := op.candPos[:0], op.candRow[:0], op.sel[:0]
	for live < nLive && len(candPos) < limit {
		pos := int32(b.LiveRow(live))
		for r >= 0 && len(candPos) < limit {
			sel = append(sel, int32(len(candPos)))
			candPos = append(candPos, pos)
			candRow = append(candRow, r)
			r = next[r]
		}
		if r >= 0 || (ends && len(candPos) == limit) {
			break
		}
		if ends {
			candPos = append(candPos, pos)
			candRow = append(candRow, -1)
		}
		live++
		if live < nLive {
			r = heads[live]
		}
	}
	op.live, op.chain = live, r
	op.candPos, op.candRow, op.sel = candPos, candRow, sel
}

// verify narrows op.sel to the candidate pairs whose keys are equal, one
// key column at a time; code-domain keys compare through keyXlat.
func (op *hashJoinOp) verify() {
	for i, ki := range op.rightKeys {
		bv, pv := op.bld.vecs[ki], op.cur.Vecs[op.leftKeys[i]]
		if x := op.keyXlat[i]; x != nil {
			op.sel = keepEqualXlat(op.sel, x, bv, op.candRow, pv, op.candPos)
		} else {
			op.sel = keepEqual(op.sel, bv, op.candRow, pv, op.candPos)
		}
	}
}

// residualOK evaluates the residual predicate on (left row pos, right row r).
func (op *hashJoinOp) residualOK(pos, r int32) bool {
	if op.residual == nil {
		return true
	}
	b := op.cur
	nl := len(b.Vecs)
	row := make([]any, nl+len(op.bld.vecs))
	for c, v := range b.Vecs {
		row[c] = v.Value(int(pos))
	}
	for c, v := range op.bld.vecs {
		row[nl+c] = v.Value(int(r))
	}
	return op.residual(row).(bool)
}

func (op *hashJoinOp) Next() (*vector.Batch, error) {
	// The first prober triggers the shared build; every other prober
	// blocks in run until it completes. Either way the prober cannot make
	// progress itself, so it hands its admission slot back for the
	// duration — with a capped pool, probers parked on once.Do must not
	// hold the slots the build workers need.
	op.opts.slot.Pause()
	err := op.bld.run(op.opts)
	op.opts.slot.Resume()
	if err != nil {
		return nil, err
	}
	switch op.node.Kind {
	case algebra.Inner, algebra.LeftOuter:
		return op.nextExpand()
	default:
		return op.nextFiltered()
	}
}

// nextExpand emits (left,right) pairs for inner and left-outer joins. Each
// block of candidates is limited to the room left in the output batch, so
// output batches are full except at the end of a probe batch, and the
// pairs come in probe-row order, chain order within a row, with a
// left-outer row that matched nothing emitted once, paired with -1.
func (op *hashJoinOp) nextExpand() (*vector.Batch, error) {
	t0 := op.opts.Tracer.Now()
	bs := op.opts.batchSize()
	outer := op.node.Kind == algebra.LeftOuter
	op.leftIdx, op.rightIdx = op.leftIdx[:0], op.rightIdx[:0]
	for len(op.leftIdx) < bs {
		if op.exhausted() {
			// Pending output pairs reference the current batch's vectors;
			// emit them before pulling a new batch.
			if len(op.leftIdx) > 0 {
				break
			}
			if err := op.pull(); err != nil {
				return nil, err
			}
			if op.cur == nil {
				return nil, nil
			}
			continue
		}
		op.candidates(bs-len(op.leftIdx), outer)
		op.verify()
		if op.residual != nil {
			keep := op.sel[:0]
			for _, k := range op.sel {
				if op.residualOK(op.candPos[k], op.candRow[k]) {
					keep = append(keep, k)
				}
			}
			op.sel = keep
		}
		if !outer {
			for _, k := range op.sel {
				op.leftIdx = append(op.leftIdx, op.candPos[k])
				op.rightIdx = append(op.rightIdx, op.candRow[k])
			}
			continue
		}
		// Left-outer: walk the block in order; an end marker emits its row
		// with -1 unless one of the row's pairs matched.
		j := 0
		for k, r := range op.candRow {
			pos := op.candPos[k]
			if r < 0 {
				if !op.matched {
					op.leftIdx = append(op.leftIdx, pos)
					op.rightIdx = append(op.rightIdx, -1)
				}
				op.matched = false
				continue
			}
			if j < len(op.sel) && op.sel[j] == int32(k) {
				j++
				op.leftIdx = append(op.leftIdx, pos)
				op.rightIdx = append(op.rightIdx, r)
				op.matched = true
			}
		}
	}
	out := op.out
	nl := len(op.cur.Vecs)
	for c, v := range op.cur.Vecs {
		out.Vecs[c].Gather(v, op.leftIdx)
		out.Vecs[c].Typ = op.schema[c].Type
	}
	for c, v := range op.bld.vecs {
		out.Vecs[nl+c].GatherOuter(v, op.rightIdx)
		out.Vecs[nl+c].Typ = op.schema[nl+c].Type
	}
	out.Sel, out.N = nil, len(op.leftIdx)
	op.opts.Tracer.RecordOperatorSince("HashJoin(probe)", out.N, t0)
	return out, nil
}

// nextFiltered handles semi, anti and mark joins: one output row (at most)
// per left row, no expansion. Only a row's first match matters, so the
// chains are walked breadth-first: each round pairs every row still
// without a hit with its next chain entry and verifies the pairs like
// nextExpand's blocks; a row leaves at its first match or chain end.
func (op *hashJoinOp) nextFiltered() (*vector.Batch, error) {
	next := op.bld.next
	for {
		t0 := op.opts.Tracer.Now()
		if err := op.pull(); err != nil || op.cur == nil {
			return nil, err
		}
		b := op.cur
		hit := resize(op.hit, b.N)
		clear(hit)
		op.hit = hit
		candPos, candRow := op.candPos[:0], op.candRow[:0]
		for k, r := range op.heads {
			if r >= 0 {
				candPos, candRow = append(candPos, int32(b.LiveRow(k))), append(candRow, r)
			}
		}
		for len(candPos) > 0 {
			op.candPos, op.candRow = candPos, candRow
			op.sel = allPairs(op.sel, len(candPos))
			op.verify()
			for _, k := range op.sel {
				if pos := candPos[k]; op.residualOK(pos, candRow[k]) {
					hit[pos] = true
				}
			}
			n := 0
			for k, pos := range candPos {
				if r := next[candRow[k]]; r >= 0 && !hit[pos] {
					candPos[n], candRow[n] = pos, r
					n++
				}
			}
			candPos, candRow = candPos[:n], candRow[:n]
		}
		sel := op.outSel[:0]
		for k := 0; k < b.Rows(); k++ {
			pos := int32(b.LiveRow(k))
			if op.node.Kind == algebra.Mark || hit[pos] == (op.node.Kind == algebra.Semi) {
				sel = append(sel, pos)
			}
		}
		op.outSel = sel
		if len(sel) == 0 {
			continue
		}
		out := op.out
		out.Vecs = append(out.Vecs[:0], b.Vecs...)
		if op.node.Kind == algebra.Mark {
			out.Vecs = append(out.Vecs, vector.FromBools(hit))
		}
		out.Sel, out.N = sel, b.N
		op.opts.Tracer.RecordOperatorSince(op.name, len(sel), t0)
		return out, nil
	}
}

// cartProdOp is the nested-loop CartProd operator: the paper's default
// physical join (a Select on top applies the join condition).
type cartProdOp struct {
	left, right Operator
	opts        ExecOptions
	schema      vector.Schema

	rbuild    []*colBuilder
	nRight    int
	built     bool
	curBatch  *vector.Batch
	lastBatch *vector.Batch
	curLive   int
	curRight  int
	leftIdx   []int32
	rightIdx  []int32
}

func newCartProdOp(left, right Operator, opts ExecOptions) (*cartProdOp, error) {
	schema := append(left.Schema().Clone(), right.Schema().Clone()...)
	return &cartProdOp{left: left, right: right, opts: opts, schema: schema}, nil
}

func (op *cartProdOp) Schema() vector.Schema { return op.schema }

func (op *cartProdOp) Open() error {
	if err := op.left.Open(); err != nil {
		return err
	}
	if err := op.right.Open(); err != nil {
		return err
	}
	op.built = false
	op.curBatch = nil
	op.curLive = 0
	op.curRight = 0
	return nil
}

func (op *cartProdOp) Close() error {
	if err := op.left.Close(); err != nil {
		op.right.Close()
		return err
	}
	return op.right.Close()
}

func (op *cartProdOp) Next() (*vector.Batch, error) {
	if !op.built {
		rs := op.right.Schema()
		op.rbuild = make([]*colBuilder, len(rs))
		for i, f := range rs {
			op.rbuild[i] = newColBuilder(f.Type)
		}
		for {
			if err := op.opts.life.check(); err != nil {
				return nil, err
			}
			b, err := op.right.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			for i, v := range b.Vecs {
				op.rbuild[i].appendVec(v, b.Sel, b.N)
			}
			op.opts.life.reserve(batchBytes(len(rs), b.Rows()))
		}
		if len(op.rbuild) > 0 {
			op.nRight = op.rbuild[0].len()
		}
		op.built = true
	}
	bs := op.opts.batchSize()
	op.leftIdx = op.leftIdx[:0]
	op.rightIdx = op.rightIdx[:0]
	for len(op.leftIdx) < bs {
		if op.curBatch == nil {
			if len(op.leftIdx) > 0 {
				break
			}
			b, err := op.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			op.curBatch = b
			op.curLive = 0
			op.curRight = 0
		}
		b := op.curBatch
		if op.curLive >= b.Rows() {
			op.lastBatch = b
			op.curBatch = nil
			continue
		}
		pos := b.LiveRow(op.curLive)
		for op.curRight < op.nRight && len(op.leftIdx) < bs {
			op.leftIdx = append(op.leftIdx, int32(pos))
			op.rightIdx = append(op.rightIdx, int32(op.curRight))
			op.curRight++
		}
		if op.curRight >= op.nRight {
			op.curLive++
			op.curRight = 0
		}
	}
	if len(op.leftIdx) == 0 {
		return nil, nil
	}
	b := op.curBatch
	if b == nil {
		b = op.lastBatch
	}
	nl := len(op.left.Schema())
	k := len(op.leftIdx)
	out := &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, len(op.schema)), N: k}
	for c := 0; c < nl; c++ {
		v := vector.New(op.schema[c].Type, k)
		v.Gather(b.Vecs[c], op.leftIdx)
		v.Typ = op.schema[c].Type
		out.Vecs[c] = v
	}
	for c := range op.rbuild {
		out.Vecs[nl+c] = op.rbuild[c].gather(op.rightIdx)
	}
	return out, nil
}
