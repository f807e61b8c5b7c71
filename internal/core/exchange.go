package core

import (
	"sync"
	"sync/atomic"
	"time"

	"x100/internal/algebra"
	"x100/internal/sched"
	"x100/internal/trace"
	"x100/internal/vector"
)

// This file implements intra-query parallelism. One compiler (build.go)
// compiles every partitionable plan fragment once per worker into a
// fragment of n pipelines; parallelism is the worker count, not a second set
// of operators. With one worker the fragment is the plain serial pipeline.
// With n > 1 the pipelines claim morsels of their scans from shared
// dispensers and run on worker goroutines; an exchange fans their streams
// in, and the pipeline breakers (aggregation, sort, join build) run one
// partial per pipeline and merge. The paper executes on one core; on
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
// again. The fragment's consumer calls it at Open, before any worker
// goroutine starts claiming.
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

// partitionable reports whether the subtree rooted at plan can be compiled
// into per-worker pipelines over shared morsel sources: a chain of
// Select/Project/Fetch1Join/FetchNJoin and hash-join probe sides rooted at a
// Scan. Every scan partitions, pending deltas or not: deletion lists become
// per-batch selection vectors and the insert tail is one more morsel of the
// shared source.
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

// fragment is a plan fragment compiled once per worker: parts[i] is worker
// i's private pipeline, compiled under workers[i]. Its consumer — an
// exchange, an aggregation, a sort, or a join build — rewinds it at Open,
// runs the workers (the breakers through runWorkers, the exchange as
// streaming goroutines), and merges the workers' private tracers back.
type fragment struct {
	parts []Operator
	// opts are the options the fragment was compiled under; workers are the
	// per-worker copies. Workers of a parallel fragment hold their own
	// admission slot and (when tracing) collector; a single pipeline
	// shares opts unless it runs inside a parallel worker.
	opts    ExecOptions
	workers []ExecOptions
	tracers []*trace.Collector // private worker collectors, not yet merged
	sources []*morselSource    // the fragment's morsel dispensers
}

// rewind resets the fragment's morsel sources for a fresh run.
func (f *fragment) rewind() {
	for _, src := range f.sources {
		src.reset()
	}
}

// close closes every pipeline and returns the first error.
func (f *fragment) close() error {
	var firstErr error
	for _, p := range f.parts {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// mergeTracers folds the workers' private collectors into dst, once; call it
// after the workers have finished.
func (f *fragment) mergeTracers(dst *trace.Collector) {
	for _, tr := range f.tracers {
		dst.Merge(tr)
	}
	f.tracers = nil
}

// runWorkers runs fn for workers 0..n-1 of f and returns the first error in
// worker order. One worker runs inline on the caller's goroutine. More each
// run on a goroutine of their own that holds the worker's admission slot
// while computing; a query cancelled while a worker is still queued for its
// slot reports the cancellation for that worker.
func (f *fragment) runWorkers(n int, fn func(w int) error) error {
	if n == 1 {
		return fn(0)
	}
	life := f.opts.life
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := f.workers[w].slot
			slot.Bind(life.stop())
			if !slot.Acquire() {
				errs[w] = life.check()
				return
			}
			defer slot.Release()
			errs[w] = fn(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exchMsg is one hand-off from a worker to the consumer.
type exchMsg struct {
	b   *vector.Batch
	err error
}

// exchangeOp merges the batch streams of a parallel fragment's pipelines
// into one stream (the exchange operator of parallel Volcano engines). Each
// worker goroutine pulls from its own pipeline and copies live rows into an
// owned buffer batch before sending, preserving the "batch valid until the
// next Next()" contract across the goroutine boundary; buffers recycle
// through a free list so the steady state allocates nothing. Batch order
// across partitions is not deterministic — order-sensitive consumers
// (Order, TopN) sort downstream.
//
// Workers are goroutines but not threads of their own: each holds an
// admission slot from the shared scheduler pool while it computes,
// releases it around blocking hand-offs to a slow consumer, and yields it
// at morsel boundaries (see scanOp.claimRange), so the morsels of all
// in-flight queries multiplex over one process-wide slot budget.
type exchangeOp struct {
	in     *fragment
	schema vector.Schema

	out     chan exchMsg
	recycle chan *vector.Batch
	stop    chan struct{}
	// stopFn idempotently closes stop. It is re-created per Open and
	// captured by value in the lifecycle watcher goroutine, so a watcher
	// from a previous Open can never race a later Open's state.
	stopFn func()
	wg     sync.WaitGroup
	cur    *vector.Batch
}

func newExchangeOp(in *fragment) *exchangeOp {
	return &exchangeOp{in: in, schema: in.parts[0].Schema()}
}

func (e *exchangeOp) Schema() vector.Schema { return e.schema }

func (e *exchangeOp) Open() error {
	e.in.rewind()
	parts := e.in.parts
	for i, p := range parts {
		if err := p.Open(); err != nil {
			for _, q := range parts[:i] {
				q.Close()
			}
			return err
		}
	}
	e.out = make(chan exchMsg, len(parts))
	e.recycle = make(chan *vector.Batch, 2*len(parts)+1)
	e.stop = make(chan struct{})
	stopCh := e.stop
	var stopOnce sync.Once
	e.stopFn = func() { stopOnce.Do(func() { close(stopCh) }) }
	e.cur = nil
	for i, p := range parts {
		e.wg.Add(1)
		go e.worker(e.in.workers[i].slot, p)
	}
	go func() {
		e.wg.Wait()
		close(e.out)
	}()
	if done := e.in.opts.life.stop(); done != nil {
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

func (e *exchangeOp) worker(slot *sched.Slot, p Operator) {
	defer e.wg.Done()
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
		return nil, e.in.opts.life.err()
	}
	if msg.err != nil {
		e.signalStop()
		return nil, msg.err
	}
	e.cur = msg.b
	e.in.opts.Tracer.RecordOperator("Exchange", msg.b.Rows(), time.Since(t0))
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
	err := e.in.close()
	e.in.mergeTracers(e.in.opts.Tracer)
	return err
}
