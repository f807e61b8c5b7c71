package core

import (
	"fmt"
	"sync"
	"time"

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

	rbuild  []*colBuilder // all right columns
	buckets []int32       // head row id + 1
	next    []int32       // chain
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

// builderCode reads the narrow dictionary code at build row r.
func builderCode(cb *colBuilder, r int) int32 {
	if cb.typ.Physical() == vector.UInt8 {
		return int32(cb.u8[r])
	}
	return int32(cb.u16[r])
}

// probeCode reads the narrow dictionary code at probe position pos.
func probeCode(v *vector.Vector, pos int) int32 {
	if v.Typ.Physical() == vector.UInt8 {
		return int32(v.UInt8s()[pos])
	}
	return int32(v.UInt16s()[pos])
}

// run materializes the build side on first call; subsequent (possibly
// concurrent) calls return the first call's outcome.
func (jb *joinBuild) run(opts ExecOptions) error {
	jb.once.Do(func() { jb.err = jb.build(opts) })
	return jb.err
}

func (jb *joinBuild) build(opts ExecOptions) error {
	t0 := time.Now()
	if err := jb.drain(); err != nil {
		return err
	}
	if len(jb.rbuild) > 0 {
		jb.nRight = jb.rbuild[0].len()
	}
	if err := jb.index(); err != nil {
		return err
	}
	jb.in.mergeTracers(opts.Tracer)
	opts.Tracer.RecordOperator("HashJoin(build)", jb.nRight, time.Since(t0))
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
// hash table; left (probe) batches are hashed vector-at-a-time and matches
// are emitted in batch-sized chunks. Kinds: inner, semi, anti, leftouter,
// mark (Section 4.1.2 lists Join over left-deep plans; semi/anti/mark are
// the decorrelation workhorses for the TPC-H plans).
type hashJoinOp struct {
	left   Operator
	node   *algebra.Join
	opts   ExecOptions
	schema vector.Schema

	leftKeys  []int // column indices in left schema
	rightKeys []int // column indices in right schema
	// keyXlat mirrors joinBuild.keyXlat: per key, the build-code ->
	// probe-code translation of a code-domain join key (nil = plain key).
	keyXlat [][]int32

	// bld is the build side, shared by the probe pipelines of all workers.
	bld      *joinBuild
	hashBuf  []uint64
	residual expr.Scalar // optional, over concatenated schema

	// probe state
	curBatch   *vector.Batch
	curLive    int   // next live-row ordinal within curBatch
	curChain   int32 // current candidate right row (-2 = start next left row)
	matchedCur bool  // current left row has matched (left-outer tracking)
	lastBatch  *vector.Batch

	// reusable output buffers
	leftIdx  []int32
	rightIdx []int32
}

func newHashJoinOp(left Operator, jb *joinBuild, node *algebra.Join, opts ExecOptions) (*hashJoinOp, error) {
	ls, rs := left.Schema(), jb.in.parts[0].Schema()
	op := &hashJoinOp{left: left, bld: jb, node: node, opts: opts}
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
	op.curBatch = nil
	op.curLive = 0
	op.curChain = -1
	op.hashBuf = nil
	op.leftIdx = op.leftIdx[:0]
	op.rightIdx = op.rightIdx[:0]
	return nil
}

// Close closes the probe side; the build side's pipelines close as soon as
// the build has drained them.
func (op *hashJoinOp) Close() error { return op.left.Close() }

// probeHashes computes hashes of the left key columns for a batch.
func (op *hashJoinOp) probeHashes(b *vector.Batch) error {
	if b.N > len(op.hashBuf) {
		op.hashBuf = make([]uint64, b.N)
	}
	hashes := op.hashBuf[:b.N]
	for i, ki := range op.leftKeys {
		if err := hashVector(hashes, b.Vecs[ki], b.Sel, i == 0); err != nil {
			return err
		}
	}
	return nil
}

// keyMatch verifies that build row r equals left batch row pos on all keys.
// Code-domain keys compare the translated build code against the probe
// code — two narrow integer loads, no string touch.
func (op *hashJoinOp) keyMatch(r int32, b *vector.Batch, pos int) bool {
	for i, ki := range op.rightKeys {
		if x := op.keyXlat[i]; x != nil {
			if x[builderCode(op.bld.rbuild[ki], int(r))] != probeCode(b.Vecs[op.leftKeys[i]], pos) {
				return false
			}
			continue
		}
		if !op.bld.rbuild[ki].equalAt(int(r), b.Vecs[op.leftKeys[i]], pos) {
			return false
		}
	}
	return true
}

// residualOK evaluates the residual predicate on (left row pos, right row r).
func (op *hashJoinOp) residualOK(b *vector.Batch, pos int, r int32) bool {
	if op.residual == nil {
		return true
	}
	nl := len(b.Vecs)
	row := make([]any, nl+len(op.bld.rbuild))
	for c, v := range b.Vecs {
		row[c] = v.Value(pos)
	}
	for c, cb := range op.bld.rbuild {
		row[nl+c] = cb.vec().Value(int(r))
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

// nextExpand emits (left,right) pairs for inner and left-outer joins,
// resuming mid-chain across calls.
func (op *hashJoinOp) nextExpand() (*vector.Batch, error) {
	t0 := time.Now()
	bs := op.opts.batchSize()
	op.leftIdx = op.leftIdx[:0]
	op.rightIdx = op.rightIdx[:0]
	outer := op.node.Kind == algebra.LeftOuter

	for len(op.leftIdx) < bs {
		if op.curBatch == nil {
			// Pending output pairs reference the previous batch's vectors;
			// emit them before pulling a new batch.
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
			if err := op.probeHashes(b); err != nil {
				return nil, err
			}
			op.curBatch = b
			op.curLive = 0
			op.curChain = -2 // -2: start a new left row
		}
		b := op.curBatch
		nLive := b.Rows()
		if op.curLive >= nLive {
			op.lastBatch = b
			op.curBatch = nil
			continue
		}
		pos := b.LiveRow(op.curLive)
		if op.curChain == -2 {
			// Begin chain for this left row.
			op.curChain = op.bld.buckets[op.hashBuf[pos]&op.bld.mask] - 1
			op.matchedCur = false
		}
		for op.curChain >= 0 && len(op.leftIdx) < bs {
			r := op.curChain
			op.curChain = op.bld.next[r]
			if op.keyMatch(r, b, pos) && op.residualOK(b, pos, r) {
				op.leftIdx = append(op.leftIdx, int32(pos))
				op.rightIdx = append(op.rightIdx, r)
				op.matchedCur = true
			}
		}
		if op.curChain < 0 {
			if outer && !op.matchedCur {
				op.leftIdx = append(op.leftIdx, int32(pos))
				op.rightIdx = append(op.rightIdx, -1)
			}
			op.curLive++
			op.curChain = -2
		}
	}
	if len(op.leftIdx) == 0 {
		return nil, nil
	}
	out := op.assembleExpand()
	op.opts.Tracer.RecordOperator("HashJoin(probe)", out.Rows(), time.Since(t0))
	return out, nil
}

func (op *hashJoinOp) assembleExpand() *vector.Batch {
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
	for c := range op.bld.rbuild {
		out.Vecs[nl+c] = gatherOuter(op.bld.rbuild[c], op.rightIdx, op.schema[nl+c].Type)
	}
	return out
}

// gatherOuter gathers build rows by id, writing the zero value for -1
// (unmatched left-outer rows).
func gatherOuter(cb *colBuilder, idx []int32, t vector.Type) *vector.Vector {
	out := vector.New(t, len(idx))
	src := cb.vec()
	for j, r := range idx {
		if r < 0 {
			continue // zero value
		}
		out.Set(j, src.Value(int(r)))
	}
	out.Typ = t
	return out
}

// nextFiltered handles semi, anti and mark joins: one output row (at most)
// per left row, no expansion.
func (op *hashJoinOp) nextFiltered() (*vector.Batch, error) {
	for {
		t0 := time.Now()
		b, err := op.left.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if err := op.probeHashes(b); err != nil {
			return nil, err
		}
		n := b.Rows()
		sel := make([]int32, 0, n)
		var marks []bool
		if op.node.Kind == algebra.Mark {
			marks = make([]bool, b.N)
		}
		check := func(pos int) bool {
			r := op.bld.buckets[op.hashBuf[pos]&op.bld.mask] - 1
			for r >= 0 {
				if op.keyMatch(r, b, pos) && op.residualOK(b, pos, r) {
					return true
				}
				r = op.bld.next[r]
			}
			return false
		}
		emit := func(pos int32) {
			matched := check(int(pos))
			switch op.node.Kind {
			case algebra.Semi:
				if matched {
					sel = append(sel, pos)
				}
			case algebra.Anti:
				if !matched {
					sel = append(sel, pos)
				}
			case algebra.Mark:
				marks[pos] = matched
				sel = append(sel, pos)
			}
		}
		if b.Sel != nil {
			for _, i := range b.Sel {
				emit(i)
			}
		} else {
			for i := 0; i < b.N; i++ {
				emit(int32(i))
			}
		}
		if len(sel) == 0 {
			continue
		}
		out := &vector.Batch{Schema: op.schema, Vecs: b.Vecs, Sel: sel, N: b.N}
		if op.node.Kind == algebra.Mark {
			out.Vecs = append(append([]*vector.Vector{}, b.Vecs...), vector.FromBools(marks))
		}
		op.opts.Tracer.RecordOperator(fmt.Sprintf("HashJoin(%s)", op.node.Kind), len(sel), time.Since(t0))
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
