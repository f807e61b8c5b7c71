package core

import (
	"slices"
	"sort"

	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// pushSelect pushes pred, a Select directly over this scan, into it,
// enabling the two code-domain scan optimizations of this engine:
//
//   - Code-domain predicates: conjuncts over a single dictionary-backed
//     string column (enum columns, merged-dict ColumnBM columns, and
//     per-chunk dict-coded chunks) are translated into the code domain and
//     evaluated with narrow-native integer select primitives — string
//     equality becomes select_eq_uchr, arbitrary predicates (IN, LIKE,
//     ranges over unsorted dictionaries) become one predicate evaluation
//     per distinct dictionary value plus a byte-lookup per row
//     (select_lookup). Raw and prefix chunks fall back to the decode-first
//     string evaluation per chunk.
//
//   - Selection pushdown into decode: predicate columns are read before the
//     remaining scan columns, so every column read after the predicate only
//     materializes the rows that survived it ("decompress only what you
//     use") via FragReader.VectorSel and selective dictionary gathers.
//
// Both apply to base batches only. Insert-tail batches are uncompressed
// logical values that may carry dictionary values the compiled translation
// has never seen, so the whole predicate evaluates decode-first over them.
func (s *scanOp) pushSelect(pred expr.Expr) error {
	full, err := expr.CompilePred(pred, s.schema, s.opts.exprOptions())
	if err != nil {
		return err
	}
	s.fullPred = full
	var rest []expr.Expr
	for _, cj := range conjuncts(pred, nil) {
		if st := s.translate(cj); st != nil {
			s.codeSteps = append(s.codeSteps, st)
			continue
		}
		rest = append(rest, cj)
	}
	if len(rest) == 0 {
		return nil
	}
	restPred := rest[0]
	if len(rest) > 1 {
		restPred = expr.AndE(rest...)
	}
	if s.strPred, err = expr.CompilePred(restPred, s.schema, s.opts.exprOptions()); err != nil {
		return err
	}
	for _, name := range expr.Columns(restPred, nil) {
		if ci := s.schema.ColIndex(name); ci >= 0 && !slices.Contains(s.strCols, ci) {
			s.strCols = append(s.strCols, ci)
		}
	}
	return nil
}

// stepKind tags how a code-domain step evaluates.
type stepKind uint8

const (
	stepCmp   stepKind = iota // compare codes against a translated constant
	stepBits                  // byte-lookup into a precomputed bitmap
	stepChunk                 // per-chunk dictionary: bitmap rebuilt per chunk
	stepNone                  // conjunct can never match (constant false)
)

// codeStep is one translated conjunct.
type codeStep struct {
	kind   stepKind
	colIdx int // scan column index

	// stepCmp: narrow comparison against code.
	op   expr.CmpKind
	code int

	// stepBits: bitmap over the table-level dictionary.
	bits []bool

	// stepChunk: per-chunk translation state. predOnDict evaluates the
	// original string conjunct over a chunk's dictionary values to build
	// the chunk bitmap; strFallback evaluates it decode-first when the
	// chunk is not dict-coded.
	predOnDict  *expr.Pred
	dictSchema  vector.Schema
	strFallback *expr.Pred
	lastFrag    int

	buf []int32
}

// singleStringCol returns the scan column index when cj references exactly
// one column and that column is a logically read string column.
func (s *scanOp) singleStringCol(cj expr.Expr) (int, bool) {
	names := expr.Columns(cj, nil)
	if len(names) == 0 {
		return -1, false
	}
	for _, n := range names[1:] {
		if n != names[0] {
			return -1, false
		}
	}
	ci := s.schema.ColIndex(names[0])
	if ci < 0 {
		return -1, false
	}
	sc := &s.cols[ci]
	if sc.col == nil || sc.isRowID || sc.rawCode || sc.typ.Physical() != vector.String {
		return -1, false
	}
	return ci, true
}

// translate attempts to turn one conjunct into a code-domain step. nil
// means the conjunct stays on the decode-first path.
func (s *scanOp) translate(cj expr.Expr) *codeStep {
	ci, ok := s.singleStringCol(cj)
	if !ok {
		return nil
	}
	sc := &s.cols[ci]
	if d, _, ok := sc.col.CodeDomain(); ok {
		return s.translateGlobal(cj, ci, d)
	}
	return s.translateChunk(cj, ci)
}

// translateGlobal translates a conjunct against a table-level dictionary
// (enum or merged-dict column): equality and inequality become narrow code
// comparisons; sorted-dictionary ranges become code-range comparisons;
// everything else (IN, LIKE, ranges over insertion-ordered enum
// dictionaries, single-column boolean combinations) becomes a bitmap built
// by evaluating the predicate once per distinct dictionary value.
func (s *scanOp) translateGlobal(cj expr.Expr, ci int, d *colstore.Dict) *codeStep {
	if cmp, cst, ok := colConstCmp(cj); ok {
		switch cmp {
		case expr.EQ:
			code, found := d.Lookup(cst)
			if !found {
				return &codeStep{kind: stepNone, colIdx: ci}
			}
			return &codeStep{kind: stepCmp, colIdx: ci, op: expr.EQ, code: code}
		case expr.NE:
			code, found := d.Lookup(cst)
			if !found {
				// Every dictionary value differs from the constant: the
				// conjunct is always true on base rows. Keep an all-true
				// step so the trace still shows a code-domain evaluation.
				return allTrueStep(ci, d)
			}
			return &codeStep{kind: stepCmp, colIdx: ci, op: expr.NE, code: code}
		case expr.LT, expr.LE, expr.GT, expr.GE:
			if d.Sorted {
				if st := rangeStep(cmp, cst, ci, d); st != nil {
					return st
				}
			}
		}
	}
	bits := s.bitsFor(cj, ci, d.Strings())
	if bits == nil {
		return nil
	}
	return &codeStep{kind: stepBits, colIdx: ci, bits: bits}
}

// rangeStep translates a range comparison over a sorted dictionary into a
// code-range comparison: codes of a sorted dictionary are order-isomorphic
// to their strings, so "col < v" is exactly "code < #values(< v)". It works
// on one captured value array (Strings), so a concurrent dictionary append
// cannot desynchronize the search and the boundary test.
func rangeStep(op expr.CmpKind, v string, ci int, d *colstore.Dict) *codeStep {
	vals := d.Strings()
	below := sort.SearchStrings(vals, v) // number of values < v
	atOrBelow := below
	if below < len(vals) && vals[below] == v {
		atOrBelow++
	}
	// Express every range as "code < bound" or "code >= bound".
	var bound int
	ge := false
	switch op {
	case expr.LT:
		bound = below
	case expr.LE:
		bound = atOrBelow
	case expr.GE:
		bound, ge = below, true
	case expr.GT:
		bound, ge = atOrBelow, true
	}
	switch {
	case !ge && bound <= 0, ge && bound >= len(vals):
		return &codeStep{kind: stepNone, colIdx: ci}
	case !ge && bound >= len(vals), ge && bound <= 0:
		return allTrueStep(ci, d)
	case ge:
		return &codeStep{kind: stepCmp, colIdx: ci, op: expr.GE, code: bound}
	default:
		return &codeStep{kind: stepCmp, colIdx: ci, op: expr.LT, code: bound}
	}
}

// allTrueStep is a bitmap step every dictionary code passes: the conjunct
// is a tautology on base rows but stays visible in the trace counters.
func allTrueStep(ci int, d *colstore.Dict) *codeStep {
	bits := make([]bool, d.Len())
	for i := range bits {
		bits[i] = true
	}
	return &codeStep{kind: stepBits, colIdx: ci, bits: bits}
}

// colConstCmp matches cj as a comparison between the conjunct's column and
// a string constant, normalizing the constant to the right-hand side.
func colConstCmp(cj expr.Expr) (expr.CmpKind, string, bool) {
	cmp, ok := cj.(*expr.Cmp)
	if !ok {
		return 0, "", false
	}
	if _, lcol := cmp.L.(*expr.Col); lcol {
		if cst, rconst := cmp.R.(*expr.Const); rconst {
			if v, isStr := cst.Val.(string); isStr {
				return cmp.Op, v, true
			}
		}
		return 0, "", false
	}
	if cst, lconst := cmp.L.(*expr.Const); lconst {
		if _, rcol := cmp.R.(*expr.Col); rcol {
			if v, isStr := cst.Val.(string); isStr {
				return flipCmpKind(cmp.Op), v, true
			}
		}
	}
	return 0, "", false
}

// dictPred compiles cj against a one-column {name: string} schema so it can
// be evaluated over dictionary values instead of rows.
func (s *scanOp) dictPred(cj expr.Expr, ci int) (*expr.Pred, vector.Schema) {
	schema := vector.Schema{{Name: s.schema[ci].Name, Type: vector.String}}
	// Dictionary evaluation is off the per-row hot path; keep it out of the
	// primitive trace so per-row primitive counts stay meaningful.
	p, err := expr.CompilePred(cj, schema, expr.Options{Fuse: s.opts.Fuse})
	if err != nil {
		return nil, nil
	}
	return p, schema
}

// bitsFor evaluates cj over the dictionary values and returns the
// qualifying-code bitmap, or nil when the conjunct cannot be compiled
// against the single-column schema.
func (s *scanOp) bitsFor(cj expr.Expr, ci int, values []string) []bool {
	p, schema := s.dictPred(cj, ci)
	if p == nil {
		return nil
	}
	return evalDictBits(p, schema, values)
}

// evalDictBits runs a compiled single-column predicate over the dictionary
// values and records the qualifying codes.
func evalDictBits(p *expr.Pred, schema vector.Schema, values []string) []bool {
	bits := make([]bool, len(values))
	if len(values) == 0 {
		return bits
	}
	b := &vector.Batch{Schema: schema, Vecs: []*vector.Vector{vector.FromStrings(values)}, N: len(values)}
	for _, i := range p.Select(b) {
		bits[i] = true
	}
	return bits
}

// translateChunk prepares a per-chunk code-domain step for a plain string
// column whose ColumnBM chunks may be dict-coded: the chunk's dictionary is
// read instead of its rows, the conjunct is evaluated once per distinct
// value, and rows filter through a byte lookup. Chunks that are not
// dict-coded (raw/prefix, or in-memory fragments) evaluate decode-first.
func (s *scanOp) translateChunk(cj expr.Expr, ci int) *codeStep {
	sc := &s.cols[ci]
	hasDict := false
	for i := 0; i < sc.col.NumFrags(); i++ {
		f := sc.col.Frag(i)
		if _, ok := f.(colstore.DictFragment); !ok {
			continue
		}
		if h, ok := f.(colstore.DictHint); ok && !h.MayServeDict() {
			continue // manifest says raw/prefix: no dictionary to serve
		}
		hasDict = true
		break
	}
	if !hasDict {
		return nil
	}
	p, schema := s.dictPred(cj, ci)
	if p == nil {
		return nil
	}
	fallback, err := expr.CompilePred(cj, s.schema, s.opts.exprOptions())
	if err != nil {
		return nil
	}
	return &codeStep{
		kind: stepChunk, colIdx: ci,
		predOnDict: p, dictSchema: schema, strFallback: fallback,
		lastFrag: -1,
	}
}

// apply runs one code step over the batch range, returning the surviving
// selection (explicit, possibly empty). filled tracks per-batch column
// materialization for the decode-first chunk fallback.
func (st *codeStep) apply(s *scanOp, lo, hi int, sel []int32) ([]int32, error) {
	sc := &s.cols[st.colIdx]
	k := hi - lo
	nin := k
	if sel != nil {
		nin = len(sel)
	}
	tr := s.opts.Tracer
	if st.kind == stepNone {
		tr.RecordCounter("select_code_domain", int64(nin))
		return st.buf[:0], nil
	}
	if st.kind == stepChunk {
		codes, dict, ok, err := sc.reader.DictVector(lo, hi)
		if err != nil {
			return nil, err
		}
		if !ok {
			// Decode-first fallback for raw/prefix chunks: materialize the
			// column (only surviving rows when dict-backed upstream) and
			// evaluate the string conjunct.
			if err := s.fill(st.colIdx, lo, hi, sel); err != nil {
				return nil, err
			}
			b := s.batch
			saved := b.Sel
			b.Sel = sel
			out := st.strFallback.Select(b)
			b.Sel = saved
			tr.RecordCounter("select_decode_first", int64(nin))
			return out, nil
		}
		if fs, _ := sc.col.FragSpan(lo); fs != st.lastFrag {
			st.bits = evalDictBits(st.predOnDict, st.dictSchema, dict)
			st.lastFrag = fs
		}
		res := st.buf[:k]
		t0 := tr.Now()
		var n int
		if codes.Typ == vector.UInt8 {
			n = primitives.SelectLookupCol(res, codes.UInt8s(), st.bits, sel)
		} else {
			n = primitives.SelectLookupCol(res, codes.UInt16s(), st.bits, sel)
		}
		tr.RecordPrimitiveSince(lookupPrimName(codes.Typ), t0, nin, nin+4*n)
		tr.RecordCounter("select_code_domain", int64(nin))
		return res[:n], nil
	}
	codes, err := sc.reader.CodeVector(lo, hi)
	if err != nil {
		return nil, err
	}
	res := st.buf[:k]
	t0 := tr.Now()
	var n int
	switch st.kind {
	case stepBits:
		if codes.Typ == vector.UInt8 {
			n = primitives.SelectLookupCol(res, codes.UInt8s(), st.bits, sel)
		} else {
			n = primitives.SelectLookupCol(res, codes.UInt16s(), st.bits, sel)
		}
		tr.RecordPrimitiveSince(lookupPrimName(codes.Typ), t0, nin, nin+4*n)
	default: // stepCmp
		n = selectCodeCmp(res, codes, st.op, st.code, sel)
		tr.RecordPrimitiveSince(cmpPrimName(st.op, codes.Typ), t0, nin, nin+4*n)
	}
	tr.RecordCounter("select_code_domain", int64(nin))
	return res[:n], nil
}

func lookupPrimName(t vector.Type) string {
	if t == vector.UInt8 {
		return "select_lookup_uchr_col"
	}
	return "select_lookup_usht_col"
}

func cmpPrimName(op expr.CmpKind, t vector.Type) string {
	kind := "uchr"
	if t == vector.UInt16 {
		kind = "usht"
	}
	var o string
	switch op {
	case expr.EQ:
		o = "eq"
	case expr.NE:
		o = "ne"
	case expr.LT:
		o = "lt"
	default:
		o = "ge"
	}
	return "select_" + o + "_" + kind + "_col_" + kind + "_val"
}

// selectCodeCmp applies a narrow-native comparison of the code vector
// against a translated constant code.
func selectCodeCmp(res []int32, codes *vector.Vector, op expr.CmpKind, code int, sel []int32) int {
	if codes.Typ == vector.UInt8 {
		in := codes.UInt8s()
		switch op {
		case expr.EQ:
			return primitives.SelectEQColVal(res, in, uint8(code), sel)
		case expr.NE:
			return primitives.SelectNEColVal(res, in, uint8(code), sel)
		case expr.LT:
			return primitives.SelectLTColVal(res, in, uint8(code), sel)
		default:
			return primitives.SelectGEColVal(res, in, uint8(code), sel)
		}
	}
	in := codes.UInt16s()
	switch op {
	case expr.EQ:
		return primitives.SelectEQColVal(res, in, uint16(code), sel)
	case expr.NE:
		return primitives.SelectNEColVal(res, in, uint16(code), sel)
	case expr.LT:
		return primitives.SelectLTColVal(res, in, uint16(code), sel)
	default:
		return primitives.SelectGEColVal(res, in, uint16(code), sel)
	}
}
