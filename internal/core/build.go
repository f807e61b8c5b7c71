package core

import (
	"context"
	"errors"
	"fmt"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/trace"
)

// Build compiles an algebra plan into an X100 operator tree. Every
// partitionable plan fragment compiles into opts.parallelism() worker
// pipelines; with one worker that is the serial pipeline itself, with more
// an exchange or a merging pipeline breaker joins them (see exchange.go).
//
// Build captures a snapshot set (frozen per-table views, see snapshot.go)
// the whole operator tree executes against; closing the root operator —
// Drain always does — releases it. Concurrent checkpoints and compactions
// therefore never change what a built plan reads.
func Build(db *Database, plan algebra.Node, opts ExecOptions) (Operator, error) {
	if _, err := plan.Out(db); err != nil {
		return nil, err
	}
	ownSnaps := opts.snaps == nil
	if ownSnaps {
		opts.snaps = db.newSnapSet()
	}
	root, err := buildRoot(db, plan, opts)
	if err != nil {
		if ownSnaps {
			opts.snaps.release()
		}
		return nil, err
	}
	if ownSnaps {
		root = &releaseOp{Operator: root, snaps: opts.snaps}
	}
	return root, nil
}

func buildRoot(db *Database, plan algebra.Node, opts ExecOptions) (Operator, error) {
	// Capture the plan's tables (and their dictionary mapping tables) in
	// one snapshot acquisition — the query's consistency point. The
	// code-domain rewrite below resolves columns through these views.
	if err := opts.snaps.capture(planTables(plan, nil)); err != nil {
		return nil, err
	}
	if !opts.NoCodeDomain {
		// Run group-by and join keys over dictionary-backed string columns
		// in the code domain, rehydrating via Fetch1Join at emit. Unchanged
		// plans return the original node, so only rewritten plans pay the
		// re-validation walk.
		if rewritten := rewriteCodeDomain(db, plan, &opts); rewritten != plan {
			if _, err := rewritten.Out(db); err != nil {
				return nil, fmt.Errorf("core: code-domain rewrite produced an invalid plan: %w", err)
			}
			plan = rewritten
			// Tables the rewrite introduced (dictionary rehydration
			// fetches) are normally captured already; pick up stragglers.
			if err := opts.snaps.capture(planTables(plan, nil)); err != nil {
				return nil, err
			}
		}
	}
	return build(db, plan, opts)
}

// planTables collects the tables a plan reads (scans and fetch joins).
func planTables(plan algebra.Node, dst []string) []string {
	switch n := plan.(type) {
	case *algebra.Scan:
		dst = append(dst, n.Table)
	case *algebra.Fetch1Join:
		dst = append(dst, n.Table)
	}
	for _, ch := range plan.Children() {
		dst = planTables(ch, dst)
	}
	return dst
}

// build compiles plan into one operator: the single pipeline itself, or an
// exchange over the pipelines of a parallel fragment.
func build(db *Database, plan algebra.Node, opts ExecOptions) (Operator, error) {
	f, err := compile(db, plan, opts)
	if err != nil {
		return nil, err
	}
	if len(f.parts) == 1 {
		return f.parts[0], nil
	}
	return newExchangeOp(f), nil
}

// compile compiles plan into one pipeline per worker: opts.parallelism()
// copies of a partitionable plan, or one pipeline of any other. A single
// pipeline is the serial operator chain as it is — no slot, morsel source
// or private tracer — unless it is compiled inside a parallel worker (a
// join's build side); it then runs on whichever prober first needs it, so
// it records into a collector of its own.
func compile(db *Database, plan algebra.Node, opts ExecOptions) (*fragment, error) {
	n := 1
	if partitionable(plan) {
		n = opts.parallelism()
	}
	f := &fragment{opts: opts, workers: make([]ExecOptions, n)}
	for i := range f.workers {
		w := opts
		if n > 1 || opts.slot != nil {
			w.slot = nil
			if n > 1 {
				w.slot = opts.pool().NewSlot()
			}
			if opts.Tracer != nil {
				w.Tracer = trace.New()
				f.tracers = append(f.tracers, w.Tracer)
			}
		}
		f.workers[i] = w
	}
	c := &compiler{db: db, frag: f,
		scans: make(map[*algebra.Scan]*morselSource), joins: make(map[*algebra.Join]*joinBuild)}
	for _, w := range f.workers {
		p, err := c.pipeline(plan, w)
		if err != nil {
			return nil, err
		}
		f.parts = append(f.parts, p)
	}
	return f, nil
}

// compiler compiles the pipelines of one fragment. Every operator instance
// (with its expression programs, buffers and selection vectors) is private
// to its worker; the first worker creates the scans' morsel sources and the
// joins' builds, which the other workers share.
type compiler struct {
	db    *Database
	frag  *fragment
	scans map[*algebra.Scan]*morselSource
	joins map[*algebra.Join]*joinBuild
}

// pipeline compiles one worker's pipeline of plan under the worker's
// options. Pipeline breakers compile their input as a fragment of its own.
func (c *compiler) pipeline(plan algebra.Node, opts ExecOptions) (Operator, error) {
	switch n := plan.(type) {
	case *algebra.Scan:
		return c.scan(n, nil, opts)
	case *algebra.Select:
		// Summary-index pruning: a Select directly over a Scan derives
		// #rowId bounds from range conjuncts on indexed columns
		// (Section 4.3), then still applies the full predicate — pushed into
		// the scan so predicate translation runs on dictionary codes and
		// later columns decode only surviving rows. The two optimizations
		// are independent: NoSummaryIndex only skips the bounds,
		// NoCodeDomain only skips the pushdown.
		if sc, ok := n.Input.(*algebra.Scan); ok {
			bounds := n.Pred
			if opts.NoSummaryIndex {
				bounds = nil
			}
			op, err := c.scan(sc, bounds, opts)
			if err != nil {
				return nil, err
			}
			if opts.NoCodeDomain {
				return newSelectOp(op, n.Pred, opts)
			}
			if err := op.pushSelect(n.Pred); err != nil {
				return nil, err
			}
			return op, nil
		}
		in, err := c.pipeline(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newSelectOp(in, n.Pred, opts)
	case *algebra.Project:
		in, err := c.pipeline(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newProjectOp(in, n.Exprs, opts)
	case *algebra.Aggr:
		in, err := compile(c.db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newAggrOp(c.db, in, n)
	case *algebra.Join:
		return c.join(n, opts)
	case *algebra.Fetch1Join:
		in, err := c.pipeline(n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newFetch1JoinOp(c.db, in, n, opts)
	case *algebra.Order:
		in, err := compile(c.db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newOrderOp(in, n.Keys, 0)
	case *algebra.TopN:
		in, err := compile(c.db, n.Input, opts)
		if err != nil {
			return nil, err
		}
		return newOrderOp(in, n.Keys, n.N)
	case *algebra.Array:
		return newArrayOp(n.Dims, opts), nil
	default:
		return nil, fmt.Errorf("core: cannot build operator for %T", plan)
	}
}

// scan compiles one worker's scan. The first worker narrows the base range
// by the summary bounds of pred (when non-nil) and, in a parallel fragment,
// creates the morsel source all the workers' scans claim from; a single
// pipeline's scan walks its range itself.
func (c *compiler) scan(n *algebra.Scan, pred expr.Expr, opts ExecOptions) (*scanOp, error) {
	op, err := newScanOp(c.db, n.Table, n.Cols, opts)
	if err != nil {
		return nil, err
	}
	src, seen := c.scans[n]
	if !seen {
		if pred != nil {
			applySummaryBounds(op.view, pred, op)
		}
		if len(c.frag.workers) > 1 {
			// Align morsels to the ColumnBM chunk grid of disk-backed
			// tables so workers never split (and thus never redundantly
			// decompress) a chunk.
			src = newMorselSource(op.lo, op.hi, op.view.chunkRows, opts)
			src.tailLo, src.tailHi = op.baseN, op.tailHi
			c.frag.sources = append(c.frag.sources, src)
		}
		c.scans[n] = src
	}
	op.source = src
	return op, nil
}

// join compiles one worker's join. An equi-join probes a hash table built
// once from its right input and shared by the probes of all workers;
// without equi-conditions it is the paper's default join, a CartProd with
// a Select on top.
func (c *compiler) join(n *algebra.Join, opts ExecOptions) (Operator, error) {
	if len(n.On) == 0 {
		if n.Kind != algebra.Inner {
			return nil, fmt.Errorf("core: %v join requires equi-conditions", n.Kind)
		}
		l, err := build(c.db, n.Left, opts)
		if err != nil {
			return nil, err
		}
		r, err := build(c.db, n.Right, opts)
		if err != nil {
			return nil, err
		}
		cp, err := newCartProdOp(l, r, opts)
		if err != nil {
			return nil, err
		}
		if n.Residual == nil {
			return cp, nil
		}
		return newSelectOp(cp, n.Residual, opts)
	}
	left, err := c.pipeline(n.Left, opts)
	if err != nil {
		return nil, err
	}
	jb := c.joins[n]
	if jb == nil {
		right, err := compile(c.db, n.Right, opts)
		if err != nil {
			return nil, err
		}
		jb = &joinBuild{in: right}
		c.joins[n] = jb
	}
	return newHashJoinOp(left, jb, n, opts)
}

// applySummaryBounds narrows a scan's base-row range by the zone maps of
// the columns that conjuncts of the form col <op> const (or const <op>
// col) compare: the column's registered summary index when it has one,
// else its chunk zone map. It works entirely on the captured table view,
// so the bounds always describe the same base the scan will read — a
// summary refreshed mid-query can never prune rows the view still
// contains, nor miss rows it gained.
func applySummaryBounds(v *tableView, pred expr.Expr, op *scanOp) {
	for _, cj := range conjuncts(pred, nil) {
		cmp, ok := cj.(*expr.Cmp)
		if !ok {
			continue
		}
		col, cOk := cmp.L.(*expr.Col)
		cst, vOk := cmp.R.(*expr.Const)
		opKind := cmp.Op
		if !cOk || !vOk {
			// Try the flipped form const <op> col.
			col, cOk = cmp.R.(*expr.Col)
			cst, vOk = cmp.L.(*expr.Const)
			opKind = flipCmpKind(cmp.Op)
			if !cOk || !vOk {
				continue
			}
		}
		// A summary that does not cover the view's base (refreshes swap
		// both in one cutover, so none should) is not trusted.
		z := v.summaries[col.Name]
		if z == nil || z.Rows() != v.n {
			c := v.col(col.Name)
			if c == nil || c.ZoneMap() == nil {
				continue
			}
			z = c.ZoneMap()
		}
		lo, hi := z.Prune(rangeFor(opKind, cst.Val))
		op.lo, op.hi = max(op.lo, lo), min(op.hi, hi)
	}
	if op.lo > op.hi {
		op.lo = op.hi
	}
}

// rangeFor converts a comparison against a constant into the value
// interval a matching row must fall into.
func rangeFor(op expr.CmpKind, v any) (lo, hi colstore.Bound) {
	switch op {
	case expr.LT, expr.LE:
		return colstore.Bound{}, colstore.Bound{Val: v, Strict: op == expr.LT}
	case expr.GT, expr.GE:
		return colstore.Bound{Val: v, Strict: op == expr.GT}, colstore.Bound{}
	case expr.EQ:
		return colstore.Bound{Val: v}, colstore.Bound{Val: v}
	}
	return colstore.Bound{}, colstore.Bound{}
}

func conjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		for _, arg := range a.Args {
			dst = conjuncts(arg, dst)
		}
		return dst
	}
	return append(dst, e)
}

func flipCmpKind(op expr.CmpKind) expr.CmpKind {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default:
		return op
	}
}

// Run builds and drains a plan, returning the materialized result. When
// opts.Ctx or opts.MemLimit is set, the query runs under a lifecycle:
// cancellation/deadline is honored at every morsel boundary (returning a
// wrapped context error with all slots, leases, and views released), and
// accounted memory beyond the limit fails the query with a wrapped
// ErrMemoryBudget instead of exhausting the process.
func Run(db *Database, plan algebra.Node, opts ExecOptions) (*Result, error) {
	if opts.life == nil {
		opts.life = newLifecycle(opts.Ctx, opts.MemLimit)
	}
	if err := opts.life.check(); err != nil {
		return nil, err
	}
	if opts.MemLimit > 0 {
		// Make the declared budget visible to the admission pool for the
		// query's duration.
		pool := opts.pool()
		pool.ReserveMemory(opts.MemLimit)
		defer pool.ReleaseMemory(opts.MemLimit)
	}
	op, err := Build(db, plan, opts)
	if err != nil {
		return nil, err
	}
	opts.Tracer.Begin()
	res, err := drain(op, opts.life)
	opts.Tracer.End()
	if opts.Tracer != nil {
		// Classify lifecycle terminations so traces count cancellations,
		// deadline hits, and budget rejections.
		switch {
		case errors.Is(err, context.Canceled):
			opts.Tracer.RecordCounter("query_cancellations", 1)
		case errors.Is(err, context.DeadlineExceeded):
			opts.Tracer.RecordCounter("query_deadline_hits", 1)
		case errors.Is(err, ErrMemoryBudget):
			opts.Tracer.RecordCounter("query_budget_rejections", 1)
		}
		// Surface storage/WAL health next to the execution counters so a
		// trace shows recovery and corruption events alongside the query.
		for _, st := range db.WalStatuses() {
			if st.Store.ChecksumFailures > 0 {
				opts.Tracer.RecordCounter("storage_checksum_failures", st.Store.ChecksumFailures)
			}
			if st.Store.DirSyncErrors > 0 {
				opts.Tracer.RecordCounter("storage_dirsync_errors", st.Store.DirSyncErrors)
			}
			if st.Store.RetriedReads > 0 {
				opts.Tracer.RecordCounter("storage_retried_reads", st.Store.RetriedReads)
			}
			if st.Store.ScrubVerified > 0 {
				opts.Tracer.RecordCounter("scrub_chunks_verified", st.Store.ScrubVerified)
			}
			if st.Store.ScrubFailed > 0 {
				opts.Tracer.RecordCounter("scrub_chunks_failed", st.Store.ScrubFailed)
			}
			if st.Wal.Replayed > 0 {
				opts.Tracer.RecordCounter("wal_replayed_records", st.Wal.Replayed)
			}
			if st.Wal.TailTruncations > 0 {
				opts.Tracer.RecordCounter("wal_tail_truncations", st.Wal.TailTruncations)
			}
			if st.Wal.StaleDiscards > 0 {
				opts.Tracer.RecordCounter("wal_stale_discards", st.Wal.StaleDiscards)
			}
			// Buffer-pool observability: decoded-chunk cache hit/miss/attach
			// counters show whether concurrent scans of the same table are
			// actually sharing circulating chunks.
			if c := st.Store.Cache; c.Hits > 0 || c.Misses > 0 {
				opts.Tracer.RecordCounter("pool_hits", c.Hits)
				opts.Tracer.RecordCounter("pool_misses", c.Misses)
				if c.Attaches > 0 {
					opts.Tracer.RecordCounter("pool_attaches", c.Attaches)
				}
				if c.Evictions > 0 {
					opts.Tracer.RecordCounter("pool_evictions", c.Evictions)
				}
			}
		}
	}
	return res, err
}
