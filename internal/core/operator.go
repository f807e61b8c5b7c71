package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"x100/internal/algebra"
	"x100/internal/expr"
	"x100/internal/sched"
	"x100/internal/trace"
	"x100/internal/vector"
)

// Operator is the X100 physical operator interface: a Volcano-style pull
// iterator whose granularity is a vector batch, not a tuple.
type Operator interface {
	// Open prepares the operator (and its children) for execution.
	Open() error
	// Next returns the next batch, or nil at end of dataflow. The returned
	// batch (and its vectors) are only valid until the following Next call.
	Next() (*vector.Batch, error)
	// Close releases resources.
	Close() error
	// Schema returns the output schema.
	Schema() vector.Schema
}

// ExecOptions configure plan execution.
type ExecOptions struct {
	// BatchSize is the vector length (the paper's default is ~1000 values;
	// Figure 10 sweeps it from 1 to 4M).
	BatchSize int
	// Fuse enables compound-primitive fusion in expressions.
	Fuse bool
	// Tracer collects per-primitive statistics (nil disables).
	Tracer *trace.Collector
	// NoSummaryIndex disables all zone map range pruning — registered
	// summary indices and disk chunk zone maps alike (ablation).
	NoSummaryIndex bool
	// NoCodeDomain disables code-domain execution: pushing a Select into
	// its scan with selection pushdown, string-predicate translation onto
	// dictionary codes, and the group-by/join-key code rewrite. Everything then runs
	// decode-first, which is the comparison baseline of the compressed
	// benchmark and the differential tests.
	NoCodeDomain bool
	// codeJoins carries the code-domain join-key annotations produced by
	// the plan rewrite (see rewriteCodeDomain) to hash-join construction.
	codeJoins map[*algebra.Join][]codeJoinKey
	// Parallelism is the number of worker pipelines for intra-query
	// parallelism. 0 and 1 run single-threaded; negative values select
	// runtime.GOMAXPROCS(0). Every partitionable plan fragment (scan →
	// select → project chains with fetch joins and hash-join probes) is
	// compiled into that many pipelines, which split the fragment's rows
	// into morsels and run on as many goroutines; the fragment's consumer
	// (exchange, aggregation, sort or join build) merges them. The rest of
	// the plan runs serially.
	Parallelism int
	// Sched is the admission-control pool worker goroutines draw execution
	// slots from. nil selects the process-wide default pool (sched.Default,
	// sized to GOMAXPROCS), so concurrent queries share one slot budget
	// instead of oversubscribing cores with private worker fleets.
	Sched *sched.Pool
	// slot is the admission slot of the parallel-fragment worker this
	// options copy was compiled for (set by compile); nil on a fragment's
	// single pipeline and on the options the query was built with.
	slot *sched.Slot
	// snaps is the query's snapshot set: the frozen per-table views every
	// operator of this plan resolves tables through (see snapshot.go).
	// Build creates it when absent; worker options copies share it.
	snaps *snapSet
	// Ctx, when non-nil, attaches a cancellation/deadline signal to the
	// query: every morsel and batch boundary checks it, and Run returns a
	// wrapped context error (context.Canceled / context.DeadlineExceeded)
	// with all slots, generation leases, and snapshot views released.
	Ctx context.Context
	// MemLimit, when positive, bounds the query's accounted memory in
	// bytes (batch buffers, sort runs, join builds, aggregation
	// accumulators, pinned decoded chunks). A query that crosses it fails
	// with a wrapped ErrMemoryBudget at the next batch boundary.
	MemLimit int64
	// life is the shared per-query lifecycle state derived from Ctx and
	// MemLimit (set by Run; shared by pointer across worker copies like
	// snaps). nil when the query asked for neither.
	life *lifecycle
}

// DefaultOptions returns the standard execution configuration.
func DefaultOptions() ExecOptions {
	return ExecOptions{BatchSize: vector.DefaultBatchSize, Fuse: true}
}

func (o ExecOptions) exprOptions() expr.Options {
	return expr.Options{Fuse: o.Fuse, Tracer: o.Tracer}
}

func (o ExecOptions) batchSize() int {
	if o.BatchSize <= 0 {
		return vector.DefaultBatchSize
	}
	return o.BatchSize
}

// pool resolves the Sched field to the admission pool: an explicit pool,
// or the process-wide default.
func (o ExecOptions) pool() *sched.Pool {
	if o.Sched != nil {
		return o.Sched
	}
	return sched.Default()
}

// parallelism resolves the Parallelism field to a worker count.
func (o ExecOptions) parallelism() int {
	if o.Parallelism < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism == 0 {
		return 1
	}
	return o.Parallelism
}

// Result is a fully materialized query result.
type Result struct {
	Schema vector.Schema
	cols   []*colBuilder
	n      int
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return r.n }

// Row returns row i as boxed values.
func (r *Result) Row(i int) []any {
	row := make([]any, len(r.cols))
	for c, cb := range r.cols {
		row[c] = cb.vec().Value(i)
	}
	return row
}

// Rows materializes all rows (tests and small outputs).
func (r *Result) Rows() [][]any {
	out := make([][]any, r.n)
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// Col returns result column i as a vector.
func (r *Result) Col(i int) *vector.Vector { return r.cols[i].vec() }

// Format renders the result as an aligned text table (up to max rows;
// max <= 0 means all).
func (r *Result) Format(max int) string {
	var b strings.Builder
	for i, f := range r.Schema {
		if i > 0 {
			b.WriteString("\t")
		}
		b.WriteString(f.Name)
	}
	b.WriteString("\n")
	n := r.n
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		for c, v := range r.Row(i) {
			if c > 0 {
				b.WriteString("\t")
			}
			switch x := v.(type) {
			case float64:
				fmt.Fprintf(&b, "%.4f", x)
			default:
				fmt.Fprintf(&b, "%v", x)
			}
		}
		b.WriteString("\n")
	}
	if n < r.n {
		fmt.Fprintf(&b, "... (%d rows total)\n", r.n)
	}
	return b.String()
}

// AppendBatch adds the live rows of a batch to the result (used by the
// baseline engines, which materialize relations wholesale).
func (r *Result) AppendBatch(b *vector.Batch) {
	if r.cols == nil {
		r.cols = make([]*colBuilder, len(r.Schema))
		for i, f := range r.Schema {
			r.cols[i] = newColBuilder(f.Type)
		}
	}
	for i, v := range b.Vecs {
		r.cols[i].appendVec(v, b.Sel, b.N)
	}
	r.n += b.Rows()
}

// AppendRow adds one boxed row (tuple-at-a-time engine output).
func (r *Result) AppendRow(row []any) {
	if r.cols == nil {
		r.cols = make([]*colBuilder, len(r.Schema))
		for i, f := range r.Schema {
			r.cols[i] = newColBuilder(f.Type)
		}
	}
	for i, cb := range r.cols {
		cb.appendValue(row[i])
	}
	r.n++
}

// Drain pulls an operator to exhaustion, materializing the result.
func Drain(op Operator) (*Result, error) { return drain(op, nil) }

// drain is Drain with a query lifecycle: every batch checks for
// cancellation/deadline/budget violations, and the materialized result's
// growth is charged against the memory budget.
func drain(op Operator, life *lifecycle) (*Result, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	schema := op.Schema()
	res := &Result{Schema: schema, cols: make([]*colBuilder, len(schema))}
	for i, f := range schema {
		res.cols[i] = newColBuilder(f.Type)
	}
	for {
		if err := life.check(); err != nil {
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i, v := range b.Vecs {
			res.cols[i].appendVec(v, b.Sel, b.N)
		}
		res.n += b.Rows()
		life.reserve(batchBytes(len(schema), b.Rows()))
	}
	return res, nil
}
