package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"x100/internal/algebra"
	"x100/internal/expr"
	"x100/internal/sched"
	"x100/internal/trace"
	"x100/internal/vector"
)

// This file implements intra-query parallelism: morsel-driven partitioned
// scans, the exchange (fan-out/fan-in) operator, and parallel partial
// aggregation with a merge phase. The paper executes on one core; on
// multi-core hardware the same vectorized pipelines parallelize naturally
// because all per-batch state (selection vectors, expression registers,
// decode buffers) is owned by the operator instance, so cloning the
// pipeline per worker makes each goroutine race-free by construction.
// Shared read-only structures — base column fragments, dictionaries,
// summary indices, and the hash-join build — are probed concurrently
// without locks.

// defaultMorselRows is the number of rows handed to a worker per claim: a
// multiple of the vector size large enough to amortize the atomic claim,
// small enough that stragglers rebalance (morsel-driven scheduling).
const defaultMorselRows = 16384

// morselSource hands out contiguous row-range morsels of a scan to worker
// pipelines. Claiming is a single atomic add, so workers that finish early
// keep pulling work until the range is exhausted.
//
// For disk-backed tables the morsel grid is aligned to the table's ColumnBM
// chunk size: the morsel length is rounded up to a chunk multiple and
// claims start on the chunk grid, so two workers never split one chunk
// (each compressed chunk is decoded by exactly one worker; only the scan
// range's pruned edges can begin or end mid-chunk).
//
// The table's insert tail [tailLo,tailHi), when non-empty, is one extra
// morsel handed out after the base range.
type morselSource struct {
	lo, hi         int
	base           int // first grid position, <= lo
	morsel         int
	next           atomic.Int64
	tailLo, tailHi int
	tailTaken      atomic.Bool
}

func newMorselSource(lo, hi, align int, opts ExecOptions) *morselSource {
	morsel := max(opts.batchSize(), defaultMorselRows)
	if align > 0 {
		morsel = (morsel + align - 1) / align * align
	}
	base := lo
	if align > 0 {
		base = lo / morsel * morsel
	}
	m := &morselSource{lo: lo, hi: hi, base: base, morsel: morsel}
	m.next.Store(int64(base))
	return m
}

// reset rewinds the dispenser so a re-Opened plan scans the full range
// again. The coordinating operator (exchange, parallel aggregation) calls
// it at Open, before any worker goroutine starts claiming.
func (m *morselSource) reset() {
	m.next.Store(int64(m.base))
	m.tailTaken.Store(false)
}

// claim returns the next unclaimed morsel [lo,hi), or ok=false when the
// range and the tail are exhausted.
func (m *morselSource) claim() (int, int, bool) {
	if lo := int(m.next.Add(int64(m.morsel))) - m.morsel; lo < m.hi {
		return max(lo, m.lo), min(lo+m.morsel, m.hi), true
	}
	if m.tailLo < m.tailHi && !m.tailTaken.Swap(true) {
		return m.tailLo, m.tailHi, true
	}
	return 0, 0, false
}

// exchMsg is one hand-off from a worker to the consumer.
type exchMsg struct {
	b   *vector.Batch
	err error
}

// exchangeOp merges the batch streams of N worker pipelines into one
// stream (the exchange operator of parallel Volcano engines). Each worker
// goroutine pulls from its own partition pipeline and copies live rows
// into an owned buffer batch before sending, preserving the "batch valid
// until the next Next()" contract across the goroutine boundary; buffers
// recycle through a free list so the steady state allocates nothing.
// Batch order across partitions is not deterministic — order-sensitive
// consumers (Order, TopN) sort downstream.
//
// Workers are goroutines but not threads of their own: each holds an
// admission slot from the shared scheduler pool while it computes,
// releases it around blocking hand-offs to a slow consumer, and yields it
// at morsel boundaries (see scanOp.claimRange), so the morsels of all
// in-flight queries multiplex over one process-wide slot budget.
type exchangeOp struct {
	parts   []Operator      // per-worker partition pipelines
	extra   []Operator      // shared build-side pipelines to close with the op
	sources []*morselSource // morsel dispensers, rewound at Open
	tracers []*trace.Collector
	slots   []*sched.Slot // per-worker admission slots, parallel to parts
	opts    ExecOptions
	schema  vector.Schema

	out     chan exchMsg
	recycle chan *vector.Batch
	stop    chan struct{}
	// stopFn idempotently closes stop. It is re-created per Open and
	// captured by value in the lifecycle watcher goroutine, so a watcher
	// from a previous Open can never race a later Open's state.
	stopFn func()
	wg     sync.WaitGroup
	cur    *vector.Batch
	merged bool
}

func newExchangeOpFromParts(parts []Operator, ctx *parCtx, tracers []*trace.Collector, slots []*sched.Slot, opts ExecOptions) *exchangeOp {
	return &exchangeOp{
		parts:   parts,
		extra:   ctx.extra,
		sources: ctx.sources(),
		tracers: tracers,
		slots:   slots,
		opts:    opts,
		schema:  parts[0].Schema(),
	}
}

func (e *exchangeOp) Schema() vector.Schema { return e.schema }

func (e *exchangeOp) Open() error {
	for _, src := range e.sources {
		src.reset()
	}
	for i, p := range e.parts {
		if err := p.Open(); err != nil {
			for _, q := range e.parts[:i] {
				q.Close()
			}
			return err
		}
	}
	e.out = make(chan exchMsg, len(e.parts))
	e.recycle = make(chan *vector.Batch, 2*len(e.parts)+1)
	e.stop = make(chan struct{})
	stopCh := e.stop
	var stopOnce sync.Once
	e.stopFn = func() { stopOnce.Do(func() { close(stopCh) }) }
	e.cur = nil
	e.merged = false
	for i, p := range e.parts {
		e.wg.Add(1)
		go e.worker(i, p)
	}
	go func() {
		e.wg.Wait()
		close(e.out)
	}()
	if done := e.opts.life.stop(); done != nil {
		// Lifecycle watcher: propagate query cancellation/deadline into
		// the exchange's stop signal so every worker — computing, queued
		// for a slot, or parked on a hand-off — unwinds within one
		// scheduler quantum. Exits with the exchange either way.
		stopFn := e.stopFn
		go func() {
			select {
			case <-done:
				stopFn()
			case <-stopCh:
			}
		}()
	}
	return nil
}

func (e *exchangeOp) worker(i int, p Operator) {
	defer e.wg.Done()
	slot := e.slots[i]
	slot.Bind(e.stop)
	if !slot.Acquire() {
		return
	}
	defer slot.Release()
	for {
		// An abandoned query (Close before exhaustion) stops within one
		// batch: queued slot waits cancel via the Bind above, and the
		// stop check here catches workers that never re-queue.
		select {
		case <-e.stop:
			return
		default:
		}
		b, err := p.Next()
		if err != nil {
			slot.Release()
			select {
			case e.out <- exchMsg{err: err}:
			case <-e.stop:
			}
			return
		}
		if b == nil {
			return
		}
		var buf *vector.Batch
		select {
		case buf = <-e.recycle:
		default:
			buf = &vector.Batch{}
		}
		buf.CopyFrom(b)
		// Fast path: the consumer is keeping up, hand off without pool
		// traffic. Otherwise release the slot for the duration of the
		// blocking send — a stalled consumer must not park a core.
		select {
		case e.out <- exchMsg{b: buf}:
			continue
		case <-e.stop:
			return
		default:
		}
		slot.Release()
		select {
		case e.out <- exchMsg{b: buf}:
		case <-e.stop:
			return
		}
		if !slot.Acquire() {
			return
		}
	}
}

func (e *exchangeOp) Next() (*vector.Batch, error) {
	t0 := time.Now()
	if e.cur != nil {
		select {
		case e.recycle <- e.cur:
		default:
		}
		e.cur = nil
	}
	msg, ok := <-e.out
	if !ok {
		// A cancelled query's workers exit without sending an error; the
		// lifecycle check turns the resulting early EOF into the wrapped
		// context (or budget) error instead of a silent truncated result.
		return nil, e.opts.life.err()
	}
	if msg.err != nil {
		e.signalStop()
		return nil, msg.err
	}
	e.cur = msg.b
	e.opts.Tracer.RecordOperator("Exchange", msg.b.Rows(), time.Since(t0))
	return msg.b, nil
}

func (e *exchangeOp) signalStop() {
	if e.stopFn != nil {
		e.stopFn()
	}
}

func (e *exchangeOp) Close() error {
	if e.stop != nil {
		e.signalStop()
		// Unblock workers parked on the full out channel, then wait them
		// out (the closer goroutine closes out after the last worker).
		for range e.out {
		}
	}
	var firstErr error
	for _, p := range e.parts {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range e.extra {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.mergeTracers()
	return firstErr
}

func (e *exchangeOp) mergeTracers() {
	if e.merged {
		return
	}
	e.merged = true
	for _, tr := range e.tracers {
		e.opts.Tracer.Merge(tr)
	}
}

// schemaOnlyOp is a zero-row input used to instantiate the merge-phase
// aggregation of parallelAggrOp with the partition pipelines' schema.
type schemaOnlyOp struct{ schema vector.Schema }

func (s schemaOnlyOp) Schema() vector.Schema        { return s.schema }
func (s schemaOnlyOp) Open() error                  { return nil }
func (s schemaOnlyOp) Next() (*vector.Batch, error) { return nil, nil }
func (s schemaOnlyOp) Close() error                 { return nil }

// parallelAggrOp executes an aggregation in two phases: N workers each run
// a full aggrOp over their partition of the input (partial aggregation,
// building thread-local group tables), then the partials merge into one
// final group table which emits the result. The merge is order-insensitive
// — sums and counts add, min/max compare, avg combines sums and row counts
// before finalization — so the group set and all integer aggregates are
// identical to serial execution; float aggregates agree up to summation
// order.
type parallelAggrOp struct {
	workers []*aggrOp
	extra   []Operator
	sources []*morselSource
	tracers []*trace.Collector
	slots   []*sched.Slot
	merged  *aggrOp
	opts    ExecOptions
	done    bool
}

func (op *parallelAggrOp) Schema() vector.Schema { return op.merged.Schema() }

func (op *parallelAggrOp) Open() error {
	op.done = false
	for _, src := range op.sources {
		src.reset()
	}
	return op.merged.Open()
}

func (op *parallelAggrOp) Close() error {
	var firstErr error
	for _, w := range op.workers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range op.extra {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := op.merged.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (op *parallelAggrOp) Next() (*vector.Batch, error) {
	if !op.done {
		if err := op.run(); err != nil {
			return nil, err
		}
		op.done = true
	}
	return op.merged.emit()
}

// run executes the partial-aggregation phase on worker goroutines, then
// merges the partials in worker order (fixed merge order keeps repeated
// runs at the same parallelism bit-identical for a given partitioning).
func (op *parallelAggrOp) run() error {
	t0 := time.Now()
	errs := make([]error, len(op.workers))
	var wg sync.WaitGroup
	for i, w := range op.workers {
		wg.Add(1)
		go func(i int, w *aggrOp) {
			defer wg.Done()
			slot := op.slots[i]
			slot.Bind(op.opts.life.stop())
			if !slot.Acquire() {
				errs[i] = op.opts.life.check()
				return
			}
			defer slot.Release()
			if err := w.Open(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.consume()
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, w := range op.workers {
		op.merged.mergeFrom(w)
	}
	for _, tr := range op.tracers {
		op.opts.Tracer.Merge(tr)
	}
	op.merged.done = true
	op.opts.Tracer.RecordOperator("Aggr(parallel-merge)", op.merged.nGroups, time.Since(t0))
	return nil
}

// --- parallel plan compilation ---

// partitionable reports whether the subtree rooted at plan can be compiled
// into per-worker partition pipelines over a shared morsel source: a chain
// of Select/Project/Fetch1Join/FetchNJoin and hash-join probe sides rooted
// at a Scan. Every scan partitions, pending deltas or not: deletion lists
// become per-batch selection vectors and the insert tail is one more
// morsel of the shared source.
func partitionable(plan algebra.Node) bool {
	switch n := plan.(type) {
	case *algebra.Scan:
		return true
	case *algebra.Select:
		return partitionable(n.Input)
	case *algebra.Project:
		return partitionable(n.Input)
	case *algebra.Join:
		// Equi-joins only: the probe side partitions, the build side is
		// materialized once and probed concurrently.
		return len(n.On) > 0 && partitionable(n.Left)
	case *algebra.Fetch1Join:
		return partitionable(n.Input)
	case *algebra.FetchNJoin:
		return partitionable(n.Input)
	default:
		return false
	}
}

// parCtx carries the state shared by the N partition pipelines of one
// parallel plan fragment: per-Scan morsel sources and per-Join shared
// builds, keyed by plan node identity.
type parCtx struct {
	db    *Database
	scans map[algebra.Node]*morselSource
	joins map[algebra.Node]*joinBuild
	extra []Operator // build-side pipelines owned by the fragment
}

// sources lists the fragment's morsel dispensers.
func (c *parCtx) sources() []*morselSource {
	out := make([]*morselSource, 0, len(c.scans))
	for _, src := range c.scans {
		out = append(out, src)
	}
	return out
}

func newParCtx(db *Database) *parCtx {
	return &parCtx{
		db:    db,
		scans: make(map[algebra.Node]*morselSource),
		joins: make(map[algebra.Node]*joinBuild),
	}
}

// buildPartition compiles one worker's copy of a partitionable subtree.
// Every operator instance (and its compiled expression programs, buffers
// and selection vectors) is private to the worker; only the morsel sources
// and join builds are shared.
func (c *parCtx) buildPartition(plan algebra.Node, opts ExecOptions) (Operator, error) {
	switch n := plan.(type) {
	case *algebra.Scan:
		return c.partScan(n, nil, opts)
	case *algebra.Select:
		if sc, ok := n.Input.(*algebra.Scan); ok {
			boundsPred := n.Pred
			if opts.NoSummaryIndex {
				boundsPred = nil // fuse without summary/fragment pruning
			}
			in, err := c.partScan(sc, boundsPred, opts)
			if err != nil {
				return nil, err
			}
			if !opts.NoCodeDomain {
				return newScanSelectOp(in, n.Pred, opts)
			}
			return newSelectOp(in, n.Pred, opts)
		}
		in, err := c.buildPartition(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newSelectOp(in, n.Pred, opts)
	case *algebra.Project:
		in, err := c.buildPartition(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newProjectOp(in, n.Exprs, opts)
	case *algebra.Join:
		left, err := c.buildPartition(n.Left, opts)
		if err != nil {
			return nil, err
		}
		jb := c.joins[n]
		if jb == nil {
			if nw := opts.parallelism(); nw > 1 && partitionable(n.Right) {
				// Partitioned parallel build: per-worker pipelines drain
				// morsels into private builders, hash and insert in
				// parallel (joinBuild.drainParallel/index). The build still
				// runs exactly once, triggered by the first prober.
				bparts, bctx, btracers, bslots, err := newParallelPipelines(c.db, n.Right, opts)
				if err != nil {
					return nil, err
				}
				jb = &joinBuild{
					right:      schemaOnlyOp{schema: bparts[0].Schema()},
					parParts:   bparts,
					parSources: bctx.sources(),
					parExtra:   bctx.extra,
					parTracers: btracers,
					parSlots:   bslots,
				}
			} else {
				// The build side runs once, serially, shared by all probers
				// — executed by whichever prober wins the build's once.Do,
				// not necessarily the worker whose compile pass created it.
				// Its operators must not capture the compiling worker's
				// slot: the executing goroutine pauses its own slot around
				// the build, and two workers touching one slot is a race.
				bopts := opts
				bopts.slot = nil
				right, err := build(c.db, n.Right, bopts)
				if err != nil {
					return nil, err
				}
				jb = &joinBuild{right: right}
				c.extra = append(c.extra, right)
			}
			c.joins[n] = jb
		}
		return newSharedProbeJoinOp(left, jb, n, opts)
	case *algebra.Fetch1Join:
		in, err := c.buildPartition(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newFetch1JoinOp(c.db, in, n, opts)
	case *algebra.FetchNJoin:
		in, err := c.buildPartition(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newFetchNJoinOp(c.db, in, n, opts)
	default:
		return nil, fmt.Errorf("core: internal: buildPartition on non-partitionable %T", plan)
	}
}

// partScan builds one worker's partitioned scan. The first worker derives
// the scanned row range (after summary-index pruning from the enclosing
// Select, when present) and creates the shared morsel source.
func (c *parCtx) partScan(n *algebra.Scan, pred expr.Expr, opts ExecOptions) (*scanOp, error) {
	op, err := newScanOp(c.db, n.Table, n.Cols, opts)
	if err != nil {
		return nil, err
	}
	src := c.scans[n]
	if src == nil {
		if pred != nil {
			applySummaryBounds(op.view, pred, op)
		}
		// Align morsels to the ColumnBM chunk grid of disk-backed tables so
		// workers never split (and thus never redundantly decompress) a chunk.
		src = newMorselSource(op.lo, op.hi, op.view.chunkRows, opts)
		src.tailLo, src.tailHi = op.baseN, op.tailHi
		c.scans[n] = src
	}
	op.source = src
	return op, nil
}

// workerOptions derives the per-worker ExecOptions: identical to the
// query's options except for the tracer, which each worker owns (the trace
// collector is not synchronized) and merges back when the workers join,
// and the admission slot the worker's goroutine holds while it computes.
func workerOptions(opts ExecOptions, tracers []*trace.Collector, slots []*sched.Slot, i int) ExecOptions {
	w := opts
	if opts.Tracer != nil {
		tracers[i] = trace.New()
		w.Tracer = tracers[i]
	}
	slots[i] = opts.pool().NewSlot()
	w.slot = slots[i]
	return w
}

// newParallelPipelines compiles plan into opts.parallelism() partition
// pipelines sharing one parCtx, each with its own tracer and admission
// slot.
func newParallelPipelines(db *Database, plan algebra.Node, opts ExecOptions) ([]Operator, *parCtx, []*trace.Collector, []*sched.Slot, error) {
	nw := opts.parallelism()
	ctx := newParCtx(db)
	parts := make([]Operator, nw)
	tracers := make([]*trace.Collector, nw)
	slots := make([]*sched.Slot, nw)
	for i := range parts {
		p, err := ctx.buildPartition(plan, workerOptions(opts, tracers, slots, i))
		if err != nil {
			return nil, nil, nil, nil, err
		}
		parts[i] = p
	}
	return parts, ctx, tracers, slots, nil
}

// newExchangeOp compiles a partitionable subtree into an exchange over N
// partition pipelines.
func newExchangeOp(db *Database, plan algebra.Node, opts ExecOptions) (Operator, error) {
	parts, ctx, tracers, slots, err := newParallelPipelines(db, plan, opts)
	if err != nil {
		return nil, err
	}
	return newExchangeOpFromParts(parts, ctx, tracers, slots, opts), nil
}

// newParallelAggr compiles Aggr(partitionable input) into partial
// aggregations over partition pipelines plus a merge phase. ok=false means
// the aggregation mode cannot merge (ordered aggregation) and the caller
// should fall back.
func newParallelAggr(db *Database, n *algebra.Aggr, opts ExecOptions) (Operator, bool, error) {
	parts, ctx, tracers, slots, err := newParallelPipelines(db, n.Input, opts)
	if err != nil {
		return nil, false, err
	}
	workers := make([]*aggrOp, len(parts))
	for i, p := range parts {
		w := opts
		if tracers[i] != nil {
			w.Tracer = tracers[i]
		}
		workers[i], err = newAggrOp(p, n, w)
		if err != nil {
			return nil, false, err
		}
	}
	if workers[0].mode == algebra.ModeOrdered {
		// Ordered aggregation relies on global input order; its inputs
		// (Order nodes) are not partitionable, so this is unreachable —
		// kept as a correctness backstop.
		return nil, false, nil
	}
	merged, err := newAggrOp(schemaOnlyOp{schema: parts[0].Schema()}, n, opts)
	if err != nil {
		return nil, false, err
	}
	return &parallelAggrOp{
		workers: workers,
		extra:   ctx.extra,
		sources: ctx.sources(),
		tracers: tracers,
		slots:   slots,
		merged:  merged,
		opts:    opts,
	}, true, nil
}

// buildParallel compiles a plan with intra-query parallelism: maximal
// partitionable fragments become exchange fan-outs or two-phase parallel
// aggregations, and the remaining (pipeline-breaking or order-sensitive)
// operators run serially on the merged stream.
func buildParallel(db *Database, plan algebra.Node, opts ExecOptions) (Operator, error) {
	switch n := plan.(type) {
	case *algebra.Aggr:
		if partitionable(n.Input) {
			op, ok, err := newParallelAggr(db, n, opts)
			if err != nil {
				return nil, err
			}
			if ok {
				return op, nil
			}
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newAggrOp(in, n, opts)
	case *algebra.Scan:
		return newExchangeOp(db, n, opts)
	case *algebra.Select:
		if partitionable(n) {
			return newExchangeOp(db, n, opts)
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newSelectOp(in, n.Pred, opts)
	case *algebra.Project:
		if partitionable(n) {
			return newExchangeOp(db, n, opts)
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newProjectOp(in, n.Exprs, opts)
	case *algebra.Join:
		if partitionable(n) {
			return newExchangeOp(db, n, opts)
		}
		if len(n.On) == 0 {
			return build(db, plan, opts)
		}
		l, err := buildParallel(db, n.Left, opts)
		if err != nil {
			return nil, err
		}
		r, err := buildParallel(db, n.Right, opts)
		if err != nil {
			return nil, err
		}
		return newHashJoinOp(l, r, n, opts)
	case *algebra.Fetch1Join:
		if partitionable(n) {
			return newExchangeOp(db, n, opts)
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newFetch1JoinOp(db, in, n, opts)
	case *algebra.FetchNJoin:
		if partitionable(n) {
			return newExchangeOp(db, n, opts)
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newFetchNJoinOp(db, in, n, opts)
	case *algebra.Order:
		if opts.parallelism() > 1 && partitionable(n.Input) {
			return newParallelOrderOp(db, n.Input, n.Keys, 0, opts)
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newOrderOp(in, n.Keys, 0, opts)
	case *algebra.TopN:
		if opts.parallelism() > 1 && partitionable(n.Input) {
			return newParallelOrderOp(db, n.Input, n.Keys, n.N, opts)
		}
		in, err := buildParallel(db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newOrderOp(in, n.Keys, n.N, opts)
	default:
		return build(db, plan, opts)
	}
}
