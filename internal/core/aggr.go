package core

import (
	"cmp"
	"fmt"
	"math"

	"x100/internal/algebra"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// aggrOp implements the three physical aggregation flavors of Section
// 4.1.2: hash aggregation (general case), direct aggregation (small
// bit-domain keys indexed straight into accumulator arrays, as in the
// hard-coded Query 1 UDF), and ordered aggregation (group members arrive
// consecutively). With no group-by expressions it degrades to scalar
// aggregation over a single group.
//
// The input is a fragment of one or more pipelines, each aggregated into a
// partial of its own by the fragment's worker. The first partial is the
// operator itself; the others merge into it before the first emit.
type aggrOp struct {
	input Operator
	node  *algebra.Aggr
	opts  ExecOptions
	in    *fragment
	parts []*aggrOp // parts[0] == op

	schema     vector.Schema
	groupProgs []*expr.Prog
	groupPass  []int
	aggProgs   []*expr.Prog
	mode       algebra.AggMode

	// group key storage (hash/ordered mode).
	groups []*colBuilder
	// hash table: open addressing with linear probing; buckets hold group
	// id + 1 (0 = empty). groupHash keeps the low 32 bits of every group's
	// hash — all a slot of a table of up to 2^32 buckets uses — so growing
	// the table or merging a partial never hashes a key again.
	buckets   []int32
	mask      uint64
	groupHash []uint32
	hashBuf   []uint64
	gidBuf    []int32
	scratch   groupScratch
	// sealing holds while the first group key of the live rows has never
	// decreased. The groups below tableFrom have a smaller first key than
	// a row already seen — sealed, since no later row can match them — and
	// have been dropped from the table (reserveSlots).
	sealing   bool
	tableFrom int
	// accumulators, one per aggregate, plus a hidden row counter used by
	// avg finalization and direct-mode occupancy.
	accs     []*accumulator
	rowCount []int64

	// direct mode.
	directCols  [2]int // group column indices in the input schema
	directWidth int    // domain size
	occupied    []int32

	done    bool
	emitPos int
	nGroups int

	// trace names, fixed at build: the operator and, per aggregate, its
	// update primitive and its fused sum+count primitive.
	name                 string
	accNames, fusedNames []string
}

type accumulator struct {
	fn      algebra.AggFn
	argTyp  vector.Type
	outTyp  vector.Type
	f64     []float64
	i64     []int64
	i32     []int32
	str     []string
	seen    []bool
	hasSeen bool
}

func newAccumulator(fn algebra.AggFn, argTyp, outTyp vector.Type) *accumulator {
	a := &accumulator{fn: fn, argTyp: argTyp, outTyp: outTyp}
	a.hasSeen = fn == algebra.AggMin || fn == algebra.AggMax
	return a
}

// growTo zero-extends s to length n in one allocation (direct aggregation
// opens with the full 256/65536-slot domain, so element-wise growth would
// cost more than the aggregation itself on small inputs).
func growTo[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// growFill extends s to length n, setting new cells to fill. Min/max
// accumulators grow with the fold identity (+Inf/MaxInt for min,
// -Inf/MinInt for max) so the branchless kernels can fold unconditionally
// without consulting seen flags.
func growFill[T any](s []T, n int, fill T) []T {
	if len(s) >= n {
		return s
	}
	old := len(s)
	s = append(s, make([]T, n-len(s))...)
	for i := old; i < len(s); i++ {
		s[i] = fill
	}
	return s
}

func (a *accumulator) grow(n int) {
	switch a.fn {
	case algebra.AggCount:
		a.i64 = growTo(a.i64, n)
		return
	case algebra.AggAvg:
		a.f64 = growTo(a.f64, n)
		return
	case algebra.AggSum:
		if a.outTyp == vector.Float64 {
			a.f64 = growTo(a.f64, n)
		} else {
			a.i64 = growTo(a.i64, n)
		}
		return
	default: // min/max
		isMin := a.fn == algebra.AggMin
		switch a.outTyp.Physical() {
		case vector.Float64:
			if isMin {
				a.f64 = growFill(a.f64, n, math.Inf(1))
			} else {
				a.f64 = growFill(a.f64, n, math.Inf(-1))
			}
		case vector.Int64:
			if isMin {
				a.i64 = growFill(a.i64, n, math.MaxInt64)
			} else {
				a.i64 = growFill(a.i64, n, math.MinInt64)
			}
		case vector.Int32:
			if isMin {
				a.i32 = growFill(a.i32, n, math.MaxInt32)
			} else {
				a.i32 = growFill(a.i32, n, math.MinInt32)
			}
		case vector.String:
			a.str = growTo(a.str, n)
		}
		a.seen = growTo(a.seen, n)
	}
}

// update folds one batch into the accumulator. v is nil for count(*).
func (a *accumulator) update(v *vector.Vector, gids []int32, sel []int32, n int) {
	switch a.fn {
	case algebra.AggCount:
		primitives.AggrCount(a.i64, gids, sel, n)
	case algebra.AggSum, algebra.AggAvg:
		dstF := a.f64
		if a.fn == algebra.AggSum && a.outTyp != vector.Float64 {
			switch a.argTyp.Physical() {
			case vector.Int32:
				primitives.AggrSum(a.i64, v.Int32s(), gids, sel)
			case vector.Int64:
				primitives.AggrSum(a.i64, v.Int64s(), gids, sel)
			case vector.UInt8:
				primitives.AggrSum(a.i64, v.UInt8s(), gids, sel)
			case vector.UInt16:
				primitives.AggrSum(a.i64, v.UInt16s(), gids, sel)
			}
			return
		}
		switch a.argTyp.Physical() {
		case vector.Float64:
			primitives.AggrSum(dstF, v.Float64s(), gids, sel)
		case vector.Int32:
			primitives.AggrSum(dstF, v.Int32s(), gids, sel)
		case vector.Int64:
			primitives.AggrSum(dstF, v.Int64s(), gids, sel)
		case vector.UInt8:
			primitives.AggrSum(dstF, v.UInt8s(), gids, sel)
		case vector.UInt16:
			primitives.AggrSum(dstF, v.UInt16s(), gids, sel)
		}
	case algebra.AggMin:
		// Numeric accumulators are sentinel-initialized (+Inf/MaxInt) by
		// grow(), so the branch-free kernels fold unconditionally.
		switch a.outTyp.Physical() {
		case vector.Float64:
			primitives.AggrMinBranchlessF64(a.f64, a.seen, v.Float64s(), gids, sel)
		case vector.Int64:
			primitives.AggrMinBranchlessI64(a.i64, a.seen, v.Int64s(), gids, sel)
		case vector.Int32:
			primitives.AggrMinBranchlessI32(a.i32, a.seen, v.Int32s(), gids, sel)
		case vector.String:
			primitives.AggrMin(a.str, a.seen, v.Strings(), gids, sel)
		}
	case algebra.AggMax:
		switch a.outTyp.Physical() {
		case vector.Float64:
			primitives.AggrMaxBranchlessF64(a.f64, a.seen, v.Float64s(), gids, sel)
		case vector.Int64:
			primitives.AggrMaxBranchlessI64(a.i64, a.seen, v.Int64s(), gids, sel)
		case vector.Int32:
			primitives.AggrMaxBranchlessI32(a.i32, a.seen, v.Int32s(), gids, sel)
		case vector.String:
			primitives.AggrMax(a.str, a.seen, v.Strings(), gids, sel)
		}
	}
}

// updateFusedCount folds one batch into the accumulator AND the hidden
// per-group row counter in a single fused pass (aggr_sumcount kernels),
// saving one full sweep over the groups vector. Returns false when the
// accumulator is not a sum/avg over a fusible width, in which case the
// caller must count rows separately.
func (a *accumulator) updateFusedCount(v *vector.Vector, cnt []int64, gids []int32, sel []int32) bool {
	if v == nil {
		return false
	}
	switch a.fn {
	case algebra.AggSum:
		if a.outTyp != vector.Float64 {
			switch a.argTyp.Physical() {
			case vector.Int32:
				primitives.AggrSumCountI64FromI32(a.i64, cnt, v.Int32s(), gids, sel)
			case vector.Int64:
				primitives.AggrSumCountI64FromI64(a.i64, cnt, v.Int64s(), gids, sel)
			case vector.UInt8:
				primitives.AggrSumCountI64FromU8(a.i64, cnt, v.UInt8s(), gids, sel)
			case vector.UInt16:
				primitives.AggrSumCountI64FromU16(a.i64, cnt, v.UInt16s(), gids, sel)
			default:
				return false
			}
			return true
		}
		fallthrough
	case algebra.AggAvg:
		switch a.argTyp.Physical() {
		case vector.Float64:
			primitives.AggrSumCountF64FromF64(a.f64, cnt, v.Float64s(), gids, sel)
		case vector.Int32:
			primitives.AggrSumCountF64FromI32(a.f64, cnt, v.Int32s(), gids, sel)
		case vector.Int64:
			primitives.AggrSumCountF64FromI64(a.f64, cnt, v.Int64s(), gids, sel)
		case vector.UInt8:
			primitives.AggrSumCountF64FromU8(a.f64, cnt, v.UInt8s(), gids, sel)
		case vector.UInt16:
			primitives.AggrSumCountF64FromU16(a.f64, cnt, v.UInt16s(), gids, sel)
		default:
			return false
		}
		return true
	}
	return false
}

// output materializes accumulator values for the group ids in idx.
func (a *accumulator) output(idx []int32, rowCount []int64) *vector.Vector {
	switch a.fn {
	case algebra.AggAvg:
		out := make([]float64, len(idx))
		for j, g := range idx {
			if rowCount[g] > 0 {
				out[j] = a.f64[g] / float64(rowCount[g])
			}
		}
		return vector.FromFloat64s(out)
	case algebra.AggCount:
		out := make([]int64, len(idx))
		for j, g := range idx {
			out[j] = a.i64[g]
		}
		return vector.FromInt64s(out)
	default:
		// Min/max accumulators hold the fold-identity sentinel for groups
		// that never saw a value (possible only for the pre-existing group
		// of a scalar aggregation over empty input); emit the zero value
		// there, matching the pre-sentinel behavior.
		switch a.outTyp.Physical() {
		case vector.Float64:
			out := make([]float64, len(idx))
			for j, g := range idx {
				if !a.hasSeen || a.seen[g] {
					out[j] = a.f64[g]
				}
			}
			return vector.FromFloat64s(out)
		case vector.Int64:
			out := make([]int64, len(idx))
			for j, g := range idx {
				if !a.hasSeen || a.seen[g] {
					out[j] = a.i64[g]
				}
			}
			return vector.FromInt64s(out)
		case vector.Int32:
			out := make([]int32, len(idx))
			for j, g := range idx {
				if !a.hasSeen || a.seen[g] {
					out[j] = a.i32[g]
				}
			}
			v := vector.FromInt32s(out)
			v.Typ = a.outTyp
			return v
		default:
			out := make([]string, len(idx))
			for j, g := range idx {
				out[j] = a.str[g]
			}
			return vector.FromStrings(out)
		}
	}
}

func aggResultType(a algebra.AggExpr, in vector.Schema) (argT, outT vector.Type, err error) {
	if a.Arg != nil {
		argT, err = a.Arg.Type(in)
		if err != nil {
			return
		}
	}
	switch a.Fn {
	case algebra.AggCount:
		outT = vector.Int64
	case algebra.AggAvg:
		outT = vector.Float64
	case algebra.AggSum:
		if argT.Physical() == vector.Float64 {
			outT = vector.Float64
		} else {
			outT = vector.Int64
		}
	default:
		outT = argT
	}
	return
}

// newAggrOp compiles an aggregation over in: one partial aggregation per
// pipeline, compiled under its worker's options.
func newAggrOp(in *fragment, node *algebra.Aggr) (*aggrOp, error) {
	parts := make([]*aggrOp, len(in.parts))
	for i, p := range in.parts {
		var err error
		if parts[i], err = newAggrPart(p, node, in.workers[i]); err != nil {
			return nil, err
		}
	}
	op := parts[0]
	op.in, op.parts = in, parts
	return op, nil
}

func newAggrPart(input Operator, node *algebra.Aggr, opts ExecOptions) (*aggrOp, error) {
	in := input.Schema()
	op := &aggrOp{input: input, node: node, opts: opts, mode: node.Mode}
	for _, g := range node.GroupBy {
		t, err := g.E.Type(in)
		if err != nil {
			return nil, err
		}
		op.schema = append(op.schema, vector.Field{Name: g.Alias, Type: t})
		if c, ok := g.E.(*expr.Col); ok {
			op.groupPass = append(op.groupPass, in.ColIndex(c.Name))
			op.groupProgs = append(op.groupProgs, nil)
		} else {
			prog, err := expr.Compile(g.E, in, opts.exprOptions())
			if err != nil {
				return nil, err
			}
			op.groupPass = append(op.groupPass, -1)
			op.groupProgs = append(op.groupProgs, prog)
		}
	}
	for _, a := range node.Aggs {
		argT, outT, err := aggResultType(a, in)
		if err != nil {
			return nil, err
		}
		op.schema = append(op.schema, vector.Field{Name: a.Alias, Type: outT})
		if a.Arg != nil {
			prog, err := expr.Compile(a.Arg, in, opts.exprOptions())
			if err != nil {
				return nil, err
			}
			op.aggProgs = append(op.aggProgs, prog)
		} else {
			op.aggProgs = append(op.aggProgs, nil)
		}
		op.accs = append(op.accs, newAccumulator(a.Fn, argT, outT))
	}
	if op.mode == algebra.ModeAuto {
		op.mode = op.pickMode(in)
		// Ordered aggregation is chosen when group members are known to
		// arrive consecutively (paper Section 4.1.2): the input is sorted
		// with the group-by expressions as a prefix of its sort keys.
		if op.mode == algebra.ModeHash && len(node.GroupBy) > 0 && inputSortedByGroups(node) {
			op.mode = algebra.ModeOrdered
		}
	}
	if op.mode == algebra.ModeDirect {
		if err := op.prepareDirect(in); err != nil {
			return nil, err
		}
	}
	op.name = fmt.Sprintf("Aggr(%s)", op.mode)
	for _, a := range op.accs {
		name := fmt.Sprintf("aggr_%s_%s_col_uidx_col", aggName(a.fn), typeAbbrevCore(a.argTyp))
		if a.fn == algebra.AggCount {
			name = "aggr_count_uidx_col"
		}
		op.accNames = append(op.accNames, name)
		op.fusedNames = append(op.fusedNames, fmt.Sprintf("aggr_sumcount_%s_col_uidx_col", typeAbbrevCore(a.argTyp)))
	}
	return op, nil
}

// inputSortedByGroups reports whether the aggregation input is an Order
// whose leading sort keys cover all group-by expressions (any direction:
// equal keys are adjacent either way).
func inputSortedByGroups(node *algebra.Aggr) bool {
	ord, ok := node.Input.(*algebra.Order)
	if !ok || len(ord.Keys) < len(node.GroupBy) {
		return false
	}
	for i, g := range node.GroupBy {
		if ord.Keys[i].E.String() != g.E.String() {
			return false
		}
	}
	return true
}

// pickMode chooses direct aggregation when all group-bys are small-domain
// code columns (at most two uint8 columns), else hash aggregation.
func (op *aggrOp) pickMode(in vector.Schema) algebra.AggMode {
	if len(op.node.GroupBy) == 0 {
		return algebra.ModeHash // scalar path shares the hash machinery
	}
	if len(op.node.GroupBy) <= 2 {
		ok := true
		for i := range op.node.GroupBy {
			pi := op.groupPass[i]
			if pi < 0 || in[pi].Type.Physical() != vector.UInt8 {
				ok = false
				break
			}
		}
		if ok {
			return algebra.ModeDirect
		}
	}
	return algebra.ModeHash
}

func (op *aggrOp) prepareDirect(in vector.Schema) error {
	n := len(op.node.GroupBy)
	if n == 0 || n > 2 {
		return fmt.Errorf("core: direct aggregation needs 1 or 2 group columns, got %d", n)
	}
	for i := 0; i < n; i++ {
		pi := op.groupPass[i]
		if pi < 0 || in[pi].Type.Physical() != vector.UInt8 {
			return fmt.Errorf("core: direct aggregation group %q must be a uint8 code column", op.node.GroupBy[i].Alias)
		}
		op.directCols[i] = pi
	}
	op.directWidth = 256
	if n == 2 {
		op.directWidth = 65536
	}
	return nil
}

func (op *aggrOp) Schema() vector.Schema { return op.schema }

func (op *aggrOp) Open() error {
	op.in.rewind()
	for _, p := range op.parts {
		if err := p.open(); err != nil {
			return err
		}
	}
	return nil
}

// open opens one partial's input and resets its group table.
func (op *aggrOp) open() error {
	if err := op.input.Open(); err != nil {
		return err
	}
	op.done = false
	op.emitPos = 0
	op.nGroups = 0
	op.occupied = nil
	op.groups = nil
	op.scratch.gvecs = nil
	op.rowCount = nil
	op.buckets = nil
	op.groupHash = nil
	for _, a := range op.accs {
		*a = *newAccumulator(a.fn, a.argTyp, a.outTyp)
	}
	op.hashBuf = nil
	op.gidBuf = nil
	op.tableFrom = 0
	op.sealing = op.mode == algebra.ModeHash && len(op.node.GroupBy) > 0 && orderable(op.schema[0].Type)
	switch op.mode {
	case algebra.ModeDirect:
		// Open with one single-code plane (256 slots) and grow lazily from
		// the codes actually seen: the nominal two-column domain is 64K
		// slots, but real enum domains are tiny (Q1 groups 3x2), and eagerly
		// zeroing 64K slots per accumulator per worker dominated the profile
		// under concurrent serving.
		op.growGroups(min(op.directWidth, 256))
	default:
		// The hash table is sized by the first batch (reserveSlots).
		for i := range op.node.GroupBy {
			t := op.schema[i].Type
			op.groups = append(op.groups, newColBuilder(t))
		}
		if len(op.node.GroupBy) == 0 {
			// Scalar aggregation: one pre-existing group.
			op.nGroups = 1
			op.growGroups(1)
		}
	}
	return nil
}

// growGroups makes the accumulators hold n groups. Group assignment calls
// it once per batch, not once per new group, and append grows the
// capacities geometrically.
func (op *aggrOp) growGroups(n int) {
	// Charge accumulator growth against the query's memory budget: one
	// 8-byte-ish cell per accumulator (plus the row count) per new group.
	if grown := n - len(op.rowCount); grown > 0 {
		op.opts.life.reserve(batchBytes(len(op.accs)+1, grown))
	}
	for _, a := range op.accs {
		a.grow(n)
	}
	op.rowCount = growTo(op.rowCount, n)
}

func (op *aggrOp) Close() error { return op.in.close() }

func (op *aggrOp) Next() (*vector.Batch, error) {
	if !op.done {
		if err := op.run(); err != nil {
			return nil, err
		}
		op.done = true
	}
	return op.emit()
}

// run aggregates every pipeline into its partial on the fragment's workers,
// then merges the partials into op in worker order (a fixed merge order
// keeps repeated runs at the same parallelism bit-identical for a given
// partitioning). The merge is order-insensitive, so the group set and all
// integer aggregates are identical to one serial pass; float aggregates
// agree up to summation order.
func (op *aggrOp) run() error {
	t0 := op.in.opts.Tracer.Now()
	if err := op.in.runWorkers(len(op.parts), func(w int) error { return op.parts[w].consume() }); err != nil {
		return err
	}
	if len(op.parts) == 1 {
		return nil
	}
	for _, p := range op.parts[1:] {
		if err := op.mergeFrom(p); err != nil {
			return err
		}
	}
	op.in.mergeTracers(op.in.opts.Tracer)
	op.in.opts.Tracer.RecordOperatorSince("Aggr(parallel-merge)", op.nGroups, t0)
	return nil
}

func (op *aggrOp) consume() error {
	for {
		// Batch boundary: cancellation/deadline/budget check for serial
		// aggregation and every partial-aggregation worker alike.
		if err := op.opts.life.check(); err != nil {
			return err
		}
		b, err := op.input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		t0 := op.opts.Tracer.Now()
		if b.N > len(op.gidBuf) {
			op.hashBuf = make([]uint64, b.N)
			op.gidBuf = make([]int32, b.N)
		}
		// 1. compute group ids for all live rows.
		switch op.mode {
		case algebra.ModeDirect:
			op.assignDirect(b)
		case algebra.ModeOrdered:
			op.assignOrdered(b)
		default:
			if len(op.node.GroupBy) == 0 {
				zeroGids(op.gidBuf[:b.N], b.Sel)
			} else if err := op.assignHash(b); err != nil {
				return err
			}
		}
		// 2. update accumulators with vectorized aggr primitives. The first
		// sum/avg accumulator fuses the hidden row-count sweep into its own
		// pass (aggr_sumcount kernel); remaining accumulators and the
		// no-fusible-sum case fall back to a separate count pass.
		gids := op.gidBuf[:b.N]
		rowCounted := false
		for i, a := range op.accs {
			var v *vector.Vector
			if prog := op.aggProgs[i]; prog != nil {
				v = prog.Run(b)
			}
			name := op.accNames[i]
			tr := op.opts.Tracer.Now()
			if !rowCounted && a.updateFusedCount(v, op.rowCount, gids, b.Sel) {
				rowCounted = true
				name = op.fusedNames[i]
			} else {
				a.update(v, gids, b.Sel, b.N)
			}
			op.opts.Tracer.RecordPrimitiveSince(name, tr, b.Rows(), (a.argTyp.Width()+8)*b.Rows())
		}
		if !rowCounted {
			primitives.AggrCount(op.rowCount, gids, b.Sel, b.N)
		}
		op.opts.Tracer.RecordOperatorSince(op.name, b.Rows(), t0)
	}
}

func zeroGids(gids []int32, sel []int32) {
	if sel != nil {
		for _, i := range sel {
			gids[i] = 0
		}
		return
	}
	for i := range gids {
		gids[i] = 0
	}
}

// assignDirect computes group ids straight from enum code columns
// (map_directgrp in Table 5).
func (op *aggrOp) assignDirect(b *vector.Batch) {
	gids := op.gidBuf[:b.N]
	var c2 []uint8
	c1 := b.Vecs[op.directCols[0]].UInt8s()
	if len(op.node.GroupBy) == 2 {
		c2 = b.Vecs[op.directCols[1]].UInt8s()
	}
	t0 := op.opts.Tracer.Now()
	primitives.DirectGroupU8(gids, c1, c2, b.Sel)
	op.opts.Tracer.RecordPrimitiveSince("map_directgrp_uidx_col_uchr_col", t0, b.Rows(), 6*b.Rows())
	if c2 != nil {
		// The two-column group id is c1 | c2<<8; grow the accumulators to
		// the highest id actually present instead of the full 64K domain.
		maxGid := int32(-1)
		if b.Sel != nil {
			for _, i := range b.Sel {
				if gids[i] > maxGid {
					maxGid = gids[i]
				}
			}
		} else {
			for _, g := range gids {
				if g > maxGid {
					maxGid = g
				}
			}
		}
		if need := int(maxGid) + 1; need > len(op.rowCount) {
			op.growGroups(need)
		}
	}
}

// groupKeyVectors evaluates the group-by expressions for a batch.
func (op *aggrOp) groupKeyVectors(b *vector.Batch) []*vector.Vector {
	keys := resize(op.scratch.keys, len(op.node.GroupBy))
	op.scratch.keys = keys
	for i := range op.node.GroupBy {
		if pi := op.groupPass[i]; pi >= 0 {
			keys[i] = b.Vecs[pi]
		} else {
			keys[i] = op.groupProgs[i].Run(b)
		}
	}
	return keys
}

// assignHash assigns the group ids of a batch through the hash table.
// Only the first row of every run of equal keys is hashed (map_hash_*
// primitives) and looked up; the rest of the run takes its group.
// Clustered input — lineitem grouped by l_orderkey — has long runs. The
// first batch whose first key decreases ends sealing: every group is
// indexed again, and the operator stays plain hash aggregation.
func (op *aggrOp) assignHash(b *vector.Batch) error {
	keys := op.groupKeyVectors(b)
	pos, same := op.adjacentEqual(b, keys)
	if len(pos) == 0 {
		return nil
	}
	s := &op.scratch
	heads := s.heads[:0]
	j := 0
	for k, p := range pos {
		if k > 0 && j < len(same) && same[j] == int32(k-1) {
			j++
			continue
		}
		heads = append(heads, p)
	}
	s.heads = heads
	if op.sealing && !op.firstKeyAscends(keys[0], heads) {
		op.unseal()
	}
	hashes := op.hashBuf[:b.N]
	t0 := op.opts.Tracer.Now()
	for i, k := range keys {
		if err := hashVector(hashes, k, heads, i == 0); err != nil {
			return err
		}
	}
	op.opts.Tracer.RecordPrimitiveSince("map_hash_col", t0, b.Rows(), 8*b.Rows())

	t1 := op.opts.Tracer.Now()
	gids := op.gidBuf[:b.N]
	op.findOrInsert(keys, hashes, heads, gids)
	for _, k := range same {
		gids[pos[k+1]] = gids[pos[k]]
	}
	op.growGroups(op.nGroups)
	op.opts.Tracer.RecordPrimitiveSince("aggr_hashprobe_uidx_col", t1, b.Rows(), 12*b.Rows())
	return nil
}

// adjacentEqual returns the live positions of b and, as indexes k into
// them, the live rows k+1 whose keys equal those of live row k, found by
// typed compares one key column at a time.
func (op *aggrOp) adjacentEqual(b *vector.Batch, keys []*vector.Vector) (pos, same []int32) {
	s := &op.scratch
	pos = s.livePos[:0]
	if b.Sel != nil {
		pos = append(pos, b.Sel...)
	} else {
		for p := 0; p < b.N; p++ {
			pos = append(pos, int32(p))
		}
	}
	s.livePos = pos
	if len(pos) == 0 {
		return pos, nil
	}
	same = allPairs(s.same, len(pos)-1)
	for _, k := range keys {
		same = keepEqual(same, k, pos, k, pos[1:])
	}
	s.same = same
	return pos, same
}

// groupScratch holds the per-batch buffers of the group-id assignment,
// reused across batches.
type groupScratch struct {
	keys                 []*vector.Vector
	gvecs                []*vector.Vector
	livePos, same, heads []int32
	slot                 []uint64
	todo, gp, gg, cp, cq []int32
	sel, newRows         []int32
}

// groupVecs returns vector views of the group key builders. A view is
// rebuilt only when its builder grew since the last call: builders only
// append, so a view of the same length still holds the same values.
func (op *aggrOp) groupVecs() []*vector.Vector {
	s := &op.scratch
	if len(s.gvecs) != len(op.groups) {
		s.gvecs = make([]*vector.Vector, len(op.groups))
	}
	for c, cb := range op.groups {
		if v := s.gvecs[c]; v == nil || v.Len() != cb.len() {
			s.gvecs[c] = cb.vec()
		}
	}
	return s.gvecs
}

// findOrInsert sets gids[p] to the group of row p of the key vectors for
// the given rows, whose hashes are known, inserting the keys not seen
// before as new groups in the order of the rows.
//
// It works a batch at a time. Each round reads the slot of every
// unresolved row. An occupied slot gives a candidate pair (row, group),
// verified by typed compares one key column at a time; a miss moves on to
// the next slot and stays for the next round. A row that reaches an empty
// slot claims it (bucket -(row+1)), and a later row reaching a claimed
// slot is verified against the claiming row. Rows of one key visit the
// same slots in the same rounds, so the claimer of a key is its first row;
// after the last round the claimers become groups in row order and their
// followers take their group ids.
func (op *aggrOp) findOrInsert(keys []*vector.Vector, hashes []uint64, rows []int32, gids []int32) {
	s := &op.scratch
	op.reserveSlots(len(rows))
	buckets, mask := op.buckets, op.mask
	slot := resize(s.slot, len(hashes))
	for _, p := range rows {
		slot[p] = hashes[p] & mask
	}
	todo := append(s.todo[:0], rows...)
	gvecs := op.groupVecs()
	gp, gg, cp, cq := s.gp, s.gg, s.cp, s.cq
	claims := 0
	for len(todo) > 0 {
		gp, gg, cp, cq = gp[:0], gg[:0], cp[:0], cq[:0]
		for _, p := range todo {
			switch e := buckets[slot[p]]; {
			case e > 0:
				gp, gg = append(gp, p), append(gg, e-1)
			case e == 0:
				buckets[slot[p]] = -(p + 1)
				gids[p] = -(p + 1)
				claims++
			default:
				cp, cq = append(cp, p), append(cq, -e-1)
			}
		}
		// Rows against groups, then rows against claimers; the misses of
		// both move to the next slot and form the next round.
		s.sel = allPairs(s.sel, len(gp))
		for c, k := range keys {
			s.sel = keepEqual(s.sel, gvecs[c], gg, k, gp)
		}
		next := op.resolve(todo[:0], gp, gg, s.sel, slot, gids, false)
		s.sel = allPairs(s.sel, len(cp))
		for _, k := range keys {
			s.sel = keepEqual(s.sel, k, cq, k, cp)
		}
		todo = op.resolve(next, cp, cq, s.sel, slot, gids, true)
	}
	s.todo, s.slot, s.gp, s.gg, s.cp, s.cq = todo, slot, gp, gg, cp, cq
	if claims == 0 {
		return // every row found an existing group
	}

	newRows := s.newRows[:0]
	for _, p := range rows {
		g := gids[p]
		if g >= 0 {
			continue
		}
		if q := -g - 1; q != p {
			gids[p] = gids[q] // a follower: its claimer q < p has its id
			continue
		}
		gids[p] = int32(op.nGroups)
		op.nGroups++
		buckets[slot[p]] = gids[p] + 1
		newRows = append(newRows, p)
	}
	for c, k := range keys {
		op.groups[c].appendVec(k, newRows, 0)
	}
	for _, p := range newRows {
		op.groupHash = append(op.groupHash, uint32(hashes[p]))
	}
	s.newRows = newRows
}

// resolve settles one list of candidate pairs — rows ps against groups or
// claiming rows qs — given match, the verified pair indexes: a matched row
// takes the group (a claimed one as -(claimer+1), settled after the last
// round), a missed row moves to the next slot and is appended to next.
func (op *aggrOp) resolve(next, ps, qs, match []int32, slot []uint64, gids []int32, claimed bool) []int32 {
	if len(match) == len(ps) && !claimed {
		for i, p := range ps {
			gids[p] = qs[i] // all matched: the common case once groups exist
		}
		return next
	}
	j := 0
	for i, p := range ps {
		if j < len(match) && match[j] == int32(i) {
			j++
			if claimed {
				gids[p] = -(qs[i] + 1)
			} else {
				gids[p] = qs[i]
			}
			continue
		}
		slot[p] = (slot[p] + 1) & op.mask
		next = append(next, p)
	}
	return next
}

// reserveSlots sizes the table so that the indexed groups plus rows more
// (the most a batch can add) stay under 0.7 load, which also leaves every
// probe an empty slot to stop at. While sealing, a full table first drops
// the sealed groups, and is rebuilt at most half full, so that more new
// groups than it holds arrive before the next rebuild: it then holds the
// current first-key run plus about a batch of new groups. Otherwise the
// table doubles. Either way it is rebuilt from the stored hashes.
func (op *aggrOp) reserveSlots(rows int) {
	n := max(len(op.buckets), 1024)
	if len(op.buckets) > 0 && (op.nGroups-op.tableFrom+rows)*10 < n*7 {
		return
	}
	load := 10
	if op.sealing {
		op.tableFrom, load = op.runStart(), 20
	}
	for (op.nGroups-op.tableFrom+rows)*load >= n*7 {
		n *= 2
	}
	if n == len(op.buckets) {
		clear(op.buckets)
	} else {
		op.buckets = make([]int32, n)
		op.mask = uint64(n - 1)
	}
	for g := op.tableFrom; g < op.nGroups; g++ {
		slot := uint64(op.groupHash[g]) & op.mask
		for op.buckets[slot] != 0 {
			slot = (slot + 1) & op.mask
		}
		op.buckets[slot] = int32(g) + 1
	}
}

// runStart returns the first group whose first key equals the last
// group's. While sealing, first keys never decrease in group order, so the
// groups before it have a smaller first key than a row already seen.
func (op *aggrOp) runStart() int {
	g, last := op.nGroups, op.nGroups-1
	for g > op.tableFrom && op.groups[0].equalRows(g-1, last) {
		g--
	}
	return g
}

// unseal stops sealing: the input left first-key order, or a partial is
// about to merge into op. A table that dropped sealed groups is discarded,
// so that the next reserveSlots indexes every group again.
func (op *aggrOp) unseal() {
	op.sealing = false
	if op.tableFrom > 0 {
		op.tableFrom, op.buckets = 0, nil
	}
}

// orderable reports whether a first group key of type t can seal: float64
// cannot (NaN is unordered), nor can bool. Codes compare as numbers, which
// suffices: in a non-decreasing sequence equal values are adjacent.
func orderable(t vector.Type) bool {
	switch t.Physical() {
	case vector.UInt8, vector.UInt16, vector.Int32, vector.Int64, vector.String:
		return true
	}
	return false
}

// firstKeyAscends reports whether the first key k, read at rows, never
// decreases and starts no lower than the last group's first key.
func (op *aggrOp) firstKeyAscends(k *vector.Vector, rows []int32) bool {
	cb, last := op.groups[0], op.nGroups-1
	switch k.Typ.Physical() {
	case vector.UInt8:
		return ascends(cb.u8, last, k.UInt8s(), rows)
	case vector.UInt16:
		return ascends(cb.u16, last, k.UInt16s(), rows)
	case vector.Int32:
		return ascends(cb.i32, last, k.Int32s(), rows)
	case vector.Int64:
		return ascends(cb.i64, last, k.Int64s(), rows)
	case vector.String:
		return ascends(cb.strs, last, k.Strings(), rows)
	}
	return false
}

// ascends is firstKeyAscends over typed values; last < 0 means no group.
func ascends[T cmp.Ordered](groups []T, last int, v []T, rows []int32) bool {
	if len(rows) == 0 {
		return true
	}
	prev := v[rows[0]]
	if last >= 0 {
		prev = groups[last]
	}
	for _, p := range rows {
		if v[p] < prev {
			return false
		}
		prev = v[p]
	}
	return true
}

// assignOrdered assigns group ids assuming group members arrive
// consecutively: a new group starts at every live row whose key differs
// from the previous live row's (for the first row, the last group's).
func (op *aggrOp) assignOrdered(b *vector.Batch) {
	keys := op.groupKeyVectors(b)
	pos, same := op.adjacentEqual(b, keys)
	if len(pos) == 0 {
		return
	}
	firstNew := op.nGroups == 0
	if !firstNew {
		first := []int32{0}
		last := []int32{int32(op.nGroups - 1)}
		gvecs := op.groupVecs()
		for c, k := range keys {
			first = keepEqual(first, gvecs[c], last, k, pos)
		}
		firstNew = len(first) == 0
	}
	gids := op.gidBuf[:b.N]
	s := &op.scratch
	newRows := s.newRows[:0]
	j := 0
	for k, p := range pos {
		isNew := firstNew
		if k > 0 {
			isNew = j >= len(same) || same[j] != int32(k-1)
			if !isNew {
				j++
			}
		}
		if isNew {
			op.nGroups++
			newRows = append(newRows, p)
		}
		gids[p] = int32(op.nGroups - 1)
	}
	for c, k := range keys {
		op.groups[c].appendVec(k, newRows, 0)
	}
	s.newRows = newRows
	op.growGroups(op.nGroups)
}

// emit produces output batches from the accumulated groups.
func (op *aggrOp) emit() (*vector.Batch, error) {
	if op.mode == algebra.ModeDirect && op.occupied == nil {
		op.occupied = make([]int32, 0, 64)
		for g := 0; g < op.directWidth && g < len(op.rowCount); g++ {
			if op.rowCount[g] > 0 {
				op.occupied = append(op.occupied, int32(g))
			}
		}
	}
	total := op.nGroups
	if op.mode == algebra.ModeDirect {
		total = len(op.occupied)
	}
	if op.emitPos >= total {
		return nil, nil
	}
	k := min(op.opts.batchSize(), total-op.emitPos)
	lo, hi := op.emitPos, op.emitPos+k
	op.emitPos = hi

	idx := make([]int32, k)
	if op.mode == algebra.ModeDirect {
		copy(idx, op.occupied[lo:hi])
	} else {
		for j := range idx {
			idx[j] = int32(lo + j)
		}
	}
	out := &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, len(op.schema)), N: k}
	ng := len(op.node.GroupBy)
	for c := 0; c < ng; c++ {
		if op.mode == algebra.ModeDirect {
			// Decode group key codes from the direct slot index.
			codes := make([]uint8, k)
			if ng == 2 && c == 0 {
				for j, g := range idx {
					codes[j] = uint8(g >> 8)
				}
			} else {
				for j, g := range idx {
					codes[j] = uint8(g & 0xff)
				}
			}
			v := vector.FromUint8s(codes)
			v.Typ = op.schema[c].Type
			out.Vecs[c] = v
		} else {
			out.Vecs[c] = op.groups[c].gather(idx)
		}
	}
	for i, a := range op.accs {
		v := a.output(idx, op.rowCount)
		v.Typ = op.schema[ng+i].Type
		out.Vecs[ng+i] = v
	}
	return out, nil
}

// mergeFrom folds the partial aggregation state of src — a worker's
// aggregation over one partition of the input — into op. The group sets are
// unioned and the accumulators combine order-insensitively: sums and counts
// add, min/max compare (respecting seen flags), and avg adds its sums and
// row counts before finalization, so the merged result equals a serial
// aggregation up to floating-point summation order. op and src must be
// built from the same Aggr node and run in the same mode.
func (op *aggrOp) mergeFrom(src *aggrOp) error {
	switch op.mode {
	case algebra.ModeDirect:
		// Group id is the code slot itself: merge slot-wise.
		op.growGroups(len(src.rowCount))
		for g, rc := range src.rowCount {
			if rc == 0 {
				continue
			}
			op.rowCount[g] += rc
			for i, a := range op.accs {
				a.merge(src.accs[i], g, g)
			}
		}
		return nil
	default:
		if len(op.node.GroupBy) == 0 {
			// Scalar aggregation: the single pre-existing group 0.
			op.rowCount[0] += src.rowCount[0]
			for i, a := range op.accs {
				a.merge(src.accs[i], 0, 0)
			}
			return nil
		}
		op.unseal()
		for _, p := range []*aggrOp{op, src} {
			if err := p.hashGroups(); err != nil {
				return err
			}
		}
		// src's groups are one batch of rows whose hashes are known; the
		// new ones join op's groups in src's group order.
		keys := make([]*vector.Vector, len(src.groups))
		for c, cb := range src.groups {
			keys[c] = cb.vec()
		}
		hashes := make([]uint64, src.nGroups)
		for g, h := range src.groupHash {
			hashes[g] = uint64(h)
		}
		gids := make([]int32, src.nGroups)
		op.findOrInsert(keys, hashes, allPairs(nil, src.nGroups), gids)
		op.growGroups(op.nGroups)
		for g, dg := range gids {
			op.rowCount[dg] += src.rowCount[g]
			for i, a := range op.accs {
				a.merge(src.accs[i], g, int(dg))
			}
		}
		return nil
	}
}

// hashGroups hashes the keys of groups formed without the hash table — an
// ordered aggregation's — and indexes them, so that its partials merge the
// way hash partials do.
func (op *aggrOp) hashGroups() error {
	if len(op.groupHash) == op.nGroups {
		return nil
	}
	h := make([]uint64, op.nGroups)
	for c, cb := range op.groups {
		if err := hashVector(h, cb.vec(), nil, c == 0); err != nil {
			return err
		}
	}
	op.groupHash, op.buckets = make([]uint32, op.nGroups), nil
	for g, x := range h {
		op.groupHash[g] = uint32(x)
	}
	op.reserveSlots(0)
	return nil
}

// merge combines the partial accumulator state of src group sg into group
// dg of a.
func (a *accumulator) merge(src *accumulator, sg, dg int) {
	switch a.fn {
	case algebra.AggCount:
		a.i64[dg] += src.i64[sg]
	case algebra.AggAvg:
		a.f64[dg] += src.f64[sg]
	case algebra.AggSum:
		if a.outTyp == vector.Float64 {
			a.f64[dg] += src.f64[sg]
		} else {
			a.i64[dg] += src.i64[sg]
		}
	default: // min/max
		if !src.seen[sg] {
			return
		}
		first := !a.seen[dg]
		a.seen[dg] = true
		takeMin := a.fn == algebra.AggMin
		switch a.outTyp.Physical() {
		case vector.Float64:
			a.f64[dg] = mergeMinMax(takeMin, first, a.f64[dg], src.f64[sg])
		case vector.Int64:
			a.i64[dg] = mergeMinMax(takeMin, first, a.i64[dg], src.i64[sg])
		case vector.Int32:
			a.i32[dg] = mergeMinMax(takeMin, first, a.i32[dg], src.i32[sg])
		case vector.String:
			a.str[dg] = mergeMinMax(takeMin, first, a.str[dg], src.str[sg])
		}
	}
}

func mergeMinMax[T primitives.Ordered](takeMin, first bool, dst, src T) T {
	if first || (takeMin && src < dst) || (!takeMin && src > dst) {
		return src
	}
	return dst
}

// hashVector hashes one key vector into hashes (first column initializes,
// the rest combine).
func hashVector(hashes []uint64, v *vector.Vector, sel []int32, first bool) error {
	switch v.Typ.Physical() {
	case vector.Int32:
		if first {
			primitives.HashInt(hashes, v.Int32s(), sel)
		} else {
			primitives.HashCombineInt(hashes, v.Int32s(), sel)
		}
	case vector.Int64:
		if first {
			primitives.HashInt(hashes, v.Int64s(), sel)
		} else {
			primitives.HashCombineInt(hashes, v.Int64s(), sel)
		}
	case vector.UInt8:
		if first {
			primitives.HashInt(hashes, v.UInt8s(), sel)
		} else {
			primitives.HashCombineInt(hashes, v.UInt8s(), sel)
		}
	case vector.UInt16:
		if first {
			primitives.HashInt(hashes, v.UInt16s(), sel)
		} else {
			primitives.HashCombineInt(hashes, v.UInt16s(), sel)
		}
	case vector.Float64:
		if first {
			primitives.HashFloat64(hashes, v.Float64s(), sel)
		} else {
			primitives.HashCombineFloat64(hashes, v.Float64s(), sel)
		}
	case vector.String:
		if first {
			primitives.HashString(hashes, v.Strings(), sel)
		} else {
			primitives.HashCombineString(hashes, v.Strings(), sel)
		}
	case vector.Bool:
		if first {
			primitives.HashBool(hashes, v.Bools(), sel)
		} else {
			primitives.HashCombineBool(hashes, v.Bools(), sel)
		}
	default:
		return fmt.Errorf("core: cannot hash %v", v.Typ)
	}
	return nil
}

func aggName(fn algebra.AggFn) string {
	switch fn {
	case algebra.AggSum:
		return "sum"
	case algebra.AggCount:
		return "count"
	case algebra.AggMin:
		return "min"
	case algebra.AggMax:
		return "max"
	default:
		return "avg"
	}
}

func typeAbbrevCore(t vector.Type) string {
	switch t.Physical() {
	case vector.Float64:
		return "flt"
	case vector.Int64:
		return "lng"
	case vector.Int32:
		return "sint"
	case vector.UInt8:
		return "uchr"
	case vector.UInt16:
		return "usht"
	case vector.String:
		return "str"
	default:
		return t.String()
	}
}
