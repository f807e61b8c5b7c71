package core

import (
	"sort"
	"time"

	"x100/internal/algebra"
	"x100/internal/expr"
	"x100/internal/vector"
)

// orderOp is the materializing sort operator. It drains its input into
// columnar builders (plus one builder per computed sort key), sorts an index
// permutation, and re-emits batches in order. TopN shares the machinery and
// truncates the permutation.
//
// The input is a fragment of one or more pipelines, each drained into a
// sorted run of its own by the fragment's worker (for TopN already pruned
// to its local top N, a superset of its share of the global top N). The
// first run is the operator itself. One run is emitted by gathering along
// its permutation; several are interleaved by a k-way heap merge, which is
// the only serial step and costs O(output * log runs) comparisons instead
// of the full O(input log input) sort. Rows that compare equal on the sort
// keys may then interleave differently from the serial (stable) sort,
// because morsel scheduling decides which run a row lands in — the output
// is deterministic in sort-key order but not in tie order.
type orderOp struct {
	input Operator
	keys  []algebra.OrdExpr
	limit int // <= 0: no limit (Order); > 0: TopN
	opts  ExecOptions
	in    *fragment
	runs  []*orderOp // runs[0] == op

	schema   vector.Schema
	keyProgs []*expr.Prog
	keyPass  []int

	cols    []*colBuilder
	keyCols []*colBuilder
	perm    []int32
	merged  []runRow // with several runs: the globally sorted rows
	done    bool
	emitPos int
}

// runRow addresses one row of one sorted run: row is the physical index in
// that run's builders (a value of its perm).
type runRow struct {
	run int32
	row int32
}

// newOrderOp compiles a sort over in: one run per pipeline, compiled under
// its worker's options.
func newOrderOp(in *fragment, keys []algebra.OrdExpr, limit int) (*orderOp, error) {
	runs := make([]*orderOp, len(in.parts))
	for i, p := range in.parts {
		var err error
		if runs[i], err = newSortRun(p, keys, limit, in.workers[i]); err != nil {
			return nil, err
		}
	}
	op := runs[0]
	op.in, op.runs = in, runs
	return op, nil
}

func newSortRun(input Operator, keys []algebra.OrdExpr, limit int, opts ExecOptions) (*orderOp, error) {
	in := input.Schema()
	op := &orderOp{input: input, keys: keys, limit: limit, opts: opts, schema: in.Clone()}
	for _, k := range keys {
		if c, ok := k.E.(*expr.Col); ok {
			if i := in.ColIndex(c.Name); i >= 0 {
				op.keyPass = append(op.keyPass, i)
				op.keyProgs = append(op.keyProgs, nil)
				continue
			}
		}
		prog, err := expr.Compile(k.E, in, opts.exprOptions())
		if err != nil {
			return nil, err
		}
		op.keyPass = append(op.keyPass, -1)
		op.keyProgs = append(op.keyProgs, prog)
	}
	return op, nil
}

func (op *orderOp) Schema() vector.Schema { return op.schema }

func (op *orderOp) Open() error {
	op.in.rewind()
	op.done = false
	op.emitPos = 0
	op.merged = nil
	for _, r := range op.runs {
		r.cols, r.keyCols, r.perm = nil, nil, nil
		if err := r.input.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (op *orderOp) Close() error { return op.in.close() }

func (op *orderOp) Next() (*vector.Batch, error) {
	if !op.done {
		if err := op.run(); err != nil {
			return nil, err
		}
		op.done = true
	}
	total := len(op.perm)
	if len(op.runs) > 1 {
		total = len(op.merged)
	}
	if op.emitPos >= total {
		return nil, nil
	}
	k := min(op.opts.batchSize(), total-op.emitPos)
	lo := op.emitPos
	op.emitPos += k
	out := &vector.Batch{Schema: op.schema, Vecs: make([]*vector.Vector, len(op.schema)), N: k}
	if len(op.runs) == 1 {
		idx := op.perm[lo : lo+k]
		for c, cb := range op.cols {
			out.Vecs[c] = cb.gather(idx)
		}
		return out, nil
	}
	for c := range op.schema {
		nb := newColBuilder(op.schema[c].Type)
		for _, rr := range op.merged[lo : lo+k] {
			nb.appendRow(op.runs[rr.run].cols[c], int(rr.row))
		}
		out.Vecs[c] = nb.vec()
	}
	return out, nil
}

// run sorts every pipeline into its run on the fragment's workers, then
// k-way merges the runs when there are several.
func (op *orderOp) run() error {
	t0 := time.Now()
	if err := op.in.runWorkers(len(op.runs), func(w int) error { return op.runs[w].consume() }); err != nil {
		return err
	}
	if len(op.runs) == 1 {
		return nil
	}
	op.merge()
	op.in.mergeTracers(op.in.opts.Tracer)
	name := "Order(parallel-merge)"
	if op.limit > 0 {
		name = "TopN(parallel-merge)"
	}
	op.in.opts.Tracer.RecordOperator(name, len(op.merged), time.Since(t0))
	return nil
}

// merge interleaves the sorted runs with a binary min-heap of run indices,
// stopping at limit rows for TopN.
func (op *orderOp) merge() {
	total := 0
	heads := make([]int, len(op.runs))
	var heap []int32
	for i, r := range op.runs {
		total += len(r.perm)
		if len(r.perm) > 0 {
			heap = append(heap, int32(i))
		}
	}
	if op.limit > 0 {
		total = min(total, op.limit)
	}
	less := func(a, b int32) bool {
		ia := int(op.runs[a].perm[heads[a]])
		ib := int(op.runs[b].perm[heads[b]])
		for c, k := range op.keys {
			ca, cb := op.runs[a].keyCols[c], op.runs[b].keyCols[c]
			if ca.equalCross(ia, cb, ib) {
				continue
			}
			if k.Desc {
				return cb.lessCross(ib, ca, ia)
			}
			return ca.lessCross(ia, cb, ib)
		}
		return a < b // deterministic tie-break by run id
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			m := l
			if r := l + 1; r < len(heap) && less(heap[r], heap[l]) {
				m = r
			}
			if !less(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	op.merged = make([]runRow, 0, total)
	for len(op.merged) < total && len(heap) > 0 {
		r := heap[0]
		op.merged = append(op.merged, runRow{run: r, row: op.runs[r].perm[heads[r]]})
		heads[r]++
		if heads[r] >= len(op.runs[r].perm) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
}

func (op *orderOp) consume() error {
	var self time.Duration
	in := op.input.Schema()
	op.cols = make([]*colBuilder, len(in))
	for i, f := range in {
		op.cols[i] = newColBuilder(f.Type)
	}
	op.keyCols = make([]*colBuilder, len(op.keys))
	for i := range op.keys {
		var t vector.Type
		if pi := op.keyPass[i]; pi >= 0 {
			t = in[pi].Type
		} else {
			t = op.keyProgs[i].OutType()
		}
		op.keyCols[i] = newColBuilder(t)
	}
	for {
		// Batch boundary: cancellation/deadline/budget check of the sort's
		// materialization loop (also the check point of each parallel run).
		if err := op.opts.life.check(); err != nil {
			return err
		}
		b, err := op.input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		op.opts.life.reserve(batchBytes(len(in)+len(op.keys), b.Rows()))
		t0 := time.Now()
		for c, v := range b.Vecs {
			op.cols[c].appendVec(v, b.Sel, b.N)
		}
		for i := range op.keys {
			var kv *vector.Vector
			if pi := op.keyPass[i]; pi >= 0 {
				kv = b.Vecs[pi]
			} else {
				kv = op.keyProgs[i].Run(b)
			}
			op.keyCols[i].appendVec(kv, b.Sel, b.N)
		}
		op.maybePrune()
		self += time.Since(t0)
	}
	t1 := time.Now()
	n := 0
	if len(op.cols) > 0 {
		n = op.cols[0].len()
	}
	op.perm = make([]int32, n)
	for i := range op.perm {
		op.perm[i] = int32(i)
	}
	op.sortPerm(op.perm)
	if op.limit > 0 && len(op.perm) > op.limit {
		op.perm = op.perm[:op.limit]
	}
	name := "Order"
	if op.limit > 0 {
		name = "TopN"
	}
	op.opts.Tracer.RecordOperator(name, n, self+time.Since(t1))
	return nil
}

// sortPerm stably sorts a row permutation by the sort keys. Stability ranks
// equal rows by arrival order, which is what makes TopN pruning
// semantics-preserving.
func (op *orderOp) sortPerm(perm []int32) {
	sort.SliceStable(perm, func(a, b int) bool {
		i, j := int(perm[a]), int(perm[b])
		for c, k := range op.keys {
			cb := op.keyCols[c]
			if cb.equalRows(i, j) {
				continue
			}
			if k.Desc {
				return cb.less(j, i)
			}
			return cb.less(i, j)
		}
		return false
	})
}

// topNPruneFloor is the minimum candidate-set size before a TopN prune fires;
// below it a full sort at the end is cheaper than periodic re-sorting.
const topNPruneFloor = 4096

// maybePrune bounds TopN memory. Instead of materializing the whole input,
// whenever the buffered candidate set grows past max(4*limit, topNPruneFloor)
// it sorts a permutation, keeps the stable top limit rows, and gathers them
// into fresh builders. A dropped row has >= limit rows stably ranked ahead of
// it that are all kept, so it can never re-enter the final top N.
func (op *orderOp) maybePrune() {
	if op.limit <= 0 || len(op.keyCols) == 0 {
		return
	}
	bound := max(4*op.limit, topNPruneFloor)
	n := op.keyCols[0].len()
	if n <= bound {
		return
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	op.sortPerm(perm)
	perm = perm[:op.limit]
	for i, cb := range op.cols {
		nb := newColBuilder(cb.typ)
		nb.appendVec(cb.vec(), perm, len(perm))
		op.cols[i] = nb
	}
	for i, cb := range op.keyCols {
		nb := newColBuilder(cb.typ)
		nb.appendVec(cb.vec(), perm, len(perm))
		op.keyCols[i] = nb
	}
}
