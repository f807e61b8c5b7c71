package core

import (
	"x100/internal/algebra"
	"x100/internal/expr"
	"x100/internal/vector"
)

// selectOp filters batches by attaching a selection vector; data vectors
// flow through untouched (Section 4.1.1: "the selection-vector is taken
// into account by map-primitives to perform calculations only for relevant
// tuples").
type selectOp struct {
	input Operator
	pred  *expr.Pred
	opts  ExecOptions
}

func newSelectOp(input Operator, p expr.Expr, opts ExecOptions) (*selectOp, error) {
	pred, err := expr.CompilePred(p, input.Schema(), opts.exprOptions())
	if err != nil {
		return nil, err
	}
	return &selectOp{input: input, pred: pred, opts: opts}, nil
}

func (s *selectOp) Schema() vector.Schema { return s.input.Schema() }

func (s *selectOp) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	// Preallocate the predicate's selection buffers once; Next then runs
	// allocation-free.
	s.pred.Reserve(s.opts.batchSize())
	return nil
}

func (s *selectOp) Close() error { return s.input.Close() }

func (s *selectOp) Next() (*vector.Batch, error) {
	for {
		b, err := s.input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		t0 := s.opts.Tracer.Now()
		sel := s.pred.Select(b)
		if len(sel) == 0 {
			s.opts.Tracer.RecordOperatorSince("Select", 0, t0)
			continue // fully filtered batch; pull the next one
		}
		b.Sel = sel
		s.opts.Tracer.RecordOperatorSince("Select", len(sel), t0)
		return b, nil
	}
}

// projectOp computes the output expressions of a Project node. Column
// pass-through expressions alias the input vectors (zero copy); computed
// expressions run their compiled primitive programs.
type projectOp struct {
	input  Operator
	exprs  []algebra.NamedExpr
	progs  []*expr.Prog
	pass   []int // input column index for pass-through, else -1
	schema vector.Schema
	opts   ExecOptions
	out    *vector.Batch // reused output batch (valid until the next Next)
}

func newProjectOp(input Operator, exprs []algebra.NamedExpr, opts ExecOptions) (*projectOp, error) {
	in := input.Schema()
	p := &projectOp{input: input, exprs: exprs, opts: opts}
	for _, ne := range exprs {
		if c, ok := ne.E.(*expr.Col); ok {
			if i := in.ColIndex(c.Name); i >= 0 {
				p.pass = append(p.pass, i)
				p.progs = append(p.progs, nil)
				p.schema = append(p.schema, vector.Field{Name: ne.Alias, Type: in[i].Type})
				continue
			}
		}
		prog, err := expr.Compile(ne.E, in, opts.exprOptions())
		if err != nil {
			return nil, err
		}
		p.pass = append(p.pass, -1)
		p.progs = append(p.progs, prog)
		p.schema = append(p.schema, vector.Field{Name: ne.Alias, Type: prog.OutType()})
	}
	return p, nil
}

func (p *projectOp) Schema() vector.Schema { return p.schema }

func (p *projectOp) Open() error {
	// The output batch struct and vector-pointer slice are reused across
	// Next calls; the vectors themselves alias input columns or
	// program-owned registers, so no payload is allocated here either.
	p.out = &vector.Batch{Schema: p.schema, Vecs: make([]*vector.Vector, len(p.exprs))}
	return p.input.Open()
}

func (p *projectOp) Close() error { return p.input.Close() }

func (p *projectOp) Next() (*vector.Batch, error) {
	b, err := p.input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	t0 := p.opts.Tracer.Now()
	out := p.out
	out.Sel = b.Sel
	out.N = b.N
	for i := range p.exprs {
		if pi := p.pass[i]; pi >= 0 {
			out.Vecs[i] = b.Vecs[pi]
			continue
		}
		out.Vecs[i] = p.progs[i].Run(b)
	}
	p.opts.Tracer.RecordOperatorSince("Project", out.Rows(), t0)
	return out, nil
}
