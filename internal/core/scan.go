package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"x100/internal/colstore"
	"x100/internal/delta"
	"x100/internal/expr"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// CodeSuffix marks a request for the raw enumeration codes of an enum
// column: scanning "l_returnflag#" yields the uint8/uint16 codes instead of
// decoded values. The matching dictionary is exposed as the mapping table
// "l_returnflag#dict" with a single "value" column, so plans can group by
// the small code domain (DirectAggr) and rehydrate values with a Fetch1Join
// — exactly the paper's enum machinery (Sections 4.3, 5.1).
const CodeSuffix = "#"

// DictSuffix names dictionary mapping tables.
const DictSuffix = "#dict"

type scanCol struct {
	name    string
	col     *colstore.Column
	ti      int // index of col in the table view (its delta column)
	isRowID bool
	rawCode bool
	// dictRead marks a logical read served through the code domain: enum
	// columns and merged-dict string columns scan their narrow codes and
	// gather the decoded values through the shared dictionary — only for
	// rows that survive the selection vector (late materialization).
	dictRead bool
	typ      vector.Type // output type
	// reader streams the column's base fragments, materializing at most
	// one (decompressed ColumnBM chunk or in-memory slice) at a time.
	reader *colstore.FragReader
	// decode buffer for dictionary columns read logically.
	buf *vector.Vector
}

// newReader creates the column's fragment reader: a "<col>#" scan of a
// merged-dict string column needs the code-mode reader (its Vector serves
// codes); every other column — including dictRead columns, which ask for
// codes explicitly via CodeVector — uses the plain reader.
func (sc *scanCol) newReader() *colstore.FragReader {
	if sc.col == nil {
		return nil
	}
	if sc.rawCode && !sc.col.IsEnum() {
		return sc.col.CodeReader()
	}
	return sc.col.Reader()
}

// domainValues returns the shared dictionary of a dictRead/rawCode string
// column.
func (sc *scanCol) domainDict() *colstore.Dict {
	if d, _, ok := sc.col.CodeDomain(); ok {
		return d
	}
	return sc.col.Dict // float enums
}

// scanOp reads a table as the paper's update scheme lays it out (Section
// 4.3, Figure 8): the immutable base range [lo,hi) through FragReaders, then
// the insert tail [baseN,tailHi) as ordinary vectors from the delta
// snapshot, both minus the sorted deletion list, which each batch turns
// into a selection vector. Every batch lies wholly in the base or wholly in
// the tail, so base batches keep the compressed-scan machinery (code-domain
// steps, late materialization, summary bounds) whatever the delta holds.
type scanOp struct {
	db *Database
	// view is the query's frozen view of the table (column set, base row
	// count); dsnap is the matching delta snapshot. Both come from the
	// plan's snapshot set, so a concurrent checkpoint or compaction never
	// changes what this scan reads.
	view   *tableView
	dsnap  *delta.Snapshot
	cols   []scanCol
	schema vector.Schema
	opts   ExecOptions
	lo, hi int // base-fragment row bounds (summary-index pruning)
	// baseN and tailHi delimit the insert tail's row ids; deleted is the
	// snapshot's ascending deletion list over base and tail ids.
	baseN, tailHi int
	deleted       []int32

	// source, when non-nil, makes this a partitioned scan: instead of
	// walking [lo,hi) sequentially the operator claims row-range morsels
	// from the shared dispenser, so sibling scans on other goroutines
	// balance the work dynamically.
	source   *morselSource
	morselHi int

	// fullPred, when non-nil, is a Select pushed into the scan
	// (pushSelect): codeSteps are its conjuncts translated into the code
	// domain, strPred the untranslated rest over the columns strCols. Base
	// batches run the code steps, then strPred; tail batches run fullPred,
	// the whole predicate, decode-first.
	fullPred  *expr.Pred
	codeSteps []*codeStep
	strPred   *expr.Pred
	strCols   []int

	pos      int
	rowIDBuf []int32
	selBuf   []int32
	batch    *vector.Batch
	filled   []bool // columns of the current batch already materialized
}

func newScanOp(db *Database, table string, cols []string, opts ExecOptions) (*scanOp, error) {
	v, err := opts.snaps.view(table)
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		for _, c := range v.cols {
			cols = append(cols, c.Name)
		}
	}
	op := &scanOp{db: db, view: v, dsnap: v.delta, opts: opts, lo: 0, hi: v.n,
		baseN: v.n, tailHi: v.n + v.delta.NumDeltaRows(), deleted: v.delta.SortedDeleted()}
	for _, name := range cols {
		sc := scanCol{name: name}
		switch {
		case name == "#rowid":
			sc.isRowID = true
			sc.typ = vector.Int32
		case strings.HasSuffix(name, CodeSuffix):
			base := strings.TrimSuffix(name, CodeSuffix)
			sc.ti = v.colIndex(base)
			if sc.ti < 0 {
				return nil, fmt.Errorf("core: table %s has no column %q", table, base)
			}
			c := v.cols[sc.ti]
			sc.col = c
			sc.rawCode = true
			switch {
			case c.IsEnum():
				sc.typ = c.PhysType()
			default:
				_, phys, ok := c.CodeDomain()
				if !ok {
					return nil, fmt.Errorf("core: %s.%s is not an enum or dict-compressed column", table, base)
				}
				sc.typ = phys
			}
		default:
			sc.ti = v.colIndex(name)
			if sc.ti < 0 {
				return nil, fmt.Errorf("core: table %s has no column %q", table, name)
			}
			c := v.cols[sc.ti]
			sc.col = c
			sc.typ = c.Typ
			if c.IsEnum() {
				sc.dictRead = true
			} else if _, _, ok := c.CodeDomain(); ok {
				sc.dictRead = true
			}
		}
		op.cols = append(op.cols, sc)
		op.schema = append(op.schema, vector.Field{Name: name, Type: sc.typ})
	}
	return op, nil
}

func (s *scanOp) Schema() vector.Schema { return s.schema }

func (s *scanOp) Open() error {
	s.pos = s.lo
	s.morselHi = 0
	if s.source != nil {
		// Partitioned scan: rows come from claimed morsels, not [lo,hi).
		s.pos = 0
	}
	// Buffers are sized to the actual batch length: with vector sizes far
	// beyond the table size (Figure 10's right edge) a batch is at most the
	// base range or the insert tail.
	n := min(s.opts.batchSize(), max(s.hi-s.lo, s.tailHi-s.baseN, 1))
	s.rowIDBuf = make([]int32, n)
	s.selBuf = make([]int32, 0, n)
	for i := range s.cols {
		sc := &s.cols[i]
		sc.reader = sc.newReader()
		if sc.dictRead {
			sc.buf = vector.New(sc.typ, n)
		}
	}
	s.batch = &vector.Batch{Schema: s.schema, Vecs: make([]*vector.Vector, len(s.cols))}
	s.filled = make([]bool, len(s.cols))
	if s.fullPred != nil {
		bs := s.opts.batchSize()
		s.fullPred.Reserve(bs)
		if s.strPred != nil {
			s.strPred.Reserve(bs)
		}
		for _, st := range s.codeSteps {
			if cap(st.buf) < bs {
				st.buf = make([]int32, bs)
			}
			st.lastFrag = -1
			if st.strFallback != nil {
				st.strFallback.Reserve(bs)
			}
		}
	}
	// Charge the scan's decode/row-id buffers against the query budget.
	s.opts.life.reserve(batchBytes(len(s.cols)+1, n))
	return nil
}

// Close flushes the readers' decode counters into the tracer.
func (s *scanOp) Close() error {
	tr := s.opts.Tracer
	for i := range s.cols {
		if r := s.cols[i].reader; r != nil {
			tr.RecordCounter("scan_decoded_values", r.Stats.DecodedValues)
			tr.RecordCounter("scan_decoded_bytes", r.Stats.DecodedBytes)
			tr.RecordCounter("scan_skipped_values", r.Stats.SkippedValues)
			tr.RecordCounter("scan_skipped_bytes", r.Stats.SkippedBytes)
			r.Stats = colstore.ReaderStats{}
		}
	}
	return nil
}

// claimRange returns the next batch row range [lo, hi): base batches are
// clamped so that none spans a fragment boundary (each column's reader then
// holds exactly one materialized fragment per batch), and the insert tail
// follows the base range. ok=false means the scan (or its morsel source) is
// exhausted.
func (s *scanOp) claimRange() (int, int, bool) {
	limit := s.hi
	if s.source != nil {
		for s.pos >= s.morselHi {
			// A morsel claim is the natural scheduling quantum: offer the
			// worker's admission slot to the oldest waiter so concurrent
			// queries rotate over the shared pool. Yield only fails when
			// the query was abandoned while re-queued — end the scan.
			if !s.opts.slot.Yield() {
				return 0, 0, false
			}
			mlo, mhi, ok := s.source.claim()
			if !ok {
				return 0, 0, false
			}
			s.pos, s.morselHi = mlo, mhi
		}
		limit = s.morselHi
	} else if s.pos >= s.hi {
		s.pos, limit = max(s.pos, s.baseN), s.tailHi
	}
	if s.pos >= limit {
		return 0, 0, false
	}
	lo := s.pos
	hi := min(lo+s.opts.batchSize(), limit)
	if lo < s.baseN {
		for i := range s.cols {
			if c := s.cols[i].col; c != nil {
				if _, fe := c.FragSpan(lo); fe < hi {
					hi = fe
				}
			}
		}
	}
	s.pos = hi
	return lo, hi, true
}

// nextRange claims the next batch range that has a live row and returns it
// with its deletion selection (batch-relative, nil = every row live).
func (s *scanOp) nextRange() (lo, hi int, sel []int32, ok bool) {
	for {
		if lo, hi, ok = s.claimRange(); !ok {
			return 0, 0, nil, false
		}
		if sel = s.deletionSel(lo, hi); sel == nil || len(sel) > 0 {
			return lo, hi, sel, true
		}
	}
}

// deletionSel walks the sorted deletion list from the batch's first id and
// returns the live positions of [lo,hi) — nil when no row of the range is
// deleted, empty when all are.
func (s *scanOp) deletionSel(lo, hi int) []int32 {
	del := s.deleted
	i, _ := slices.BinarySearch(del, int32(lo))
	if i == len(del) || int(del[i]) >= hi {
		return nil
	}
	sel := s.selBuf[:0]
	for j := lo; j < hi; j++ {
		if i < len(del) && int(del[i]) == j {
			i++
			continue
		}
		sel = append(sel, int32(j-lo))
	}
	s.selBuf = sel
	return sel
}

// fill materializes column i of the current batch over [lo,hi), once per
// batch. sel (batch-relative positions, nil = all) is the selection known
// so far: dictionary-backed base columns decode only the selected rows.
func (s *scanOp) fill(i, lo, hi int, sel []int32) error {
	if s.filled[i] {
		return nil
	}
	sc := &s.cols[i]
	var v *vector.Vector
	var err error
	switch {
	case sc.isRowID:
		ids := s.rowIDBuf[:hi-lo]
		for j := range ids {
			ids[j] = int32(lo + j)
		}
		v = vector.FromInt32s(ids)
	case lo >= s.baseN:
		v = s.dsnap.DeltaVector(sc.ti, lo-s.baseN, hi-s.baseN)
		if sc.rawCode {
			v, err = sc.tailCodes(v)
		}
	case sc.dictRead:
		v, err = s.decodeDict(sc, lo, hi, sel)
	case sc.rawCode:
		v, err = sc.reader.Vector(lo, hi)
	default:
		v, err = sc.reader.VectorSel(lo, hi, sel)
	}
	if err != nil {
		return err
	}
	v.Typ = sc.typ
	s.batch.Vecs[i] = v
	s.filled[i] = true
	return nil
}

// Next claims batch ranges until one has a row that is live and, with a
// pushed-down predicate, passes it; the remaining columns are then filled
// only for those rows.
func (s *scanOp) Next() (*vector.Batch, error) {
	for {
		// Batch boundary: the cancellation/budget check of this pipeline,
		// also between batches the predicate filters out entirely.
		if err := s.opts.life.check(); err != nil {
			return nil, err
		}
		lo, hi, sel, ok := s.nextRange()
		if !ok {
			return nil, nil
		}
		b := s.batch
		b.N = hi - lo
		b.Sel = nil
		clear(s.filled)
		var t0 time.Time
		if s.fullPred != nil {
			t0 = s.opts.Tracer.Now()
			var err error
			if sel, err = s.filter(lo, hi, sel); err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				s.opts.Tracer.RecordOperatorSince("Select", 0, t0)
				continue
			}
		}
		for i := range s.cols {
			if err := s.fill(i, lo, hi, sel); err != nil {
				return nil, err
			}
		}
		b.Sel = sel
		if s.fullPred != nil {
			s.opts.Tracer.RecordOperatorSince("Select", b.Rows(), t0)
		}
		return b, nil
	}
}

// filter returns the rows of batch [lo,hi) under sel that pass the pushed
// predicate: on a base batch the code steps, then the untranslated rest
// decode-first; on a tail batch the whole predicate decode-first.
func (s *scanOp) filter(lo, hi int, sel []int32) ([]int32, error) {
	p, cols := s.fullPred, []int(nil)
	if lo >= s.baseN {
		for i := range s.cols {
			if err := s.fill(i, lo, hi, sel); err != nil {
				return nil, err
			}
		}
	} else {
		for _, st := range s.codeSteps {
			out, err := st.apply(s, lo, hi, sel)
			if err != nil || len(out) == 0 {
				return out, err
			}
			sel = out
		}
		if s.strPred == nil {
			return sel, nil
		}
		p, cols = s.strPred, s.strCols
	}
	for _, ci := range cols {
		if err := s.fill(ci, lo, hi, sel); err != nil {
			return nil, err
		}
	}
	nin := hi - lo
	if sel != nil {
		nin = len(sel)
	}
	s.batch.Sel = sel
	s.opts.Tracer.RecordCounter("select_decode_first", int64(nin))
	return p.Select(s.batch), nil
}

// decodeDict gathers dictionary values through the code vector — the
// automatic Fetch1Join against the mapping table (map_fetch_uchr_col in
// Table 5 of the paper). With a selection vector only surviving rows are
// materialized: the decompress-only-what-you-use scan path.
func (s *scanOp) decodeDict(sc *scanCol, lo, hi int, sel []int32) (*vector.Vector, error) {
	k := hi - lo
	out := sc.buf.Slice(0, k)
	out.Typ = sc.typ
	codes, err := sc.reader.CodeVector(lo, hi)
	if err != nil {
		return nil, err
	}
	tr := s.opts.Tracer
	t0 := tr.Now()
	var name string
	dict := sc.domainDict()
	if sc.typ.Physical() == vector.Float64 {
		base := dict.Floats()
		if codes.Typ == vector.UInt8 {
			primitives.GatherColU8(out.Float64s(), base, codes.UInt8s(), sel)
			name = "map_fetch_uchr_col_flt_col"
		} else {
			primitives.GatherColU16(out.Float64s(), base, codes.UInt16s(), sel)
			name = "map_fetch_usht_col_flt_col"
		}
	} else {
		base := dict.Strings()
		if codes.Typ == vector.UInt8 {
			primitives.GatherColU8(out.Strings(), base, codes.UInt8s(), sel)
			name = "map_fetch_uchr_col_str_col"
		} else {
			primitives.GatherColU16(out.Strings(), base, codes.UInt16s(), sel)
			name = "map_fetch_usht_col_str_col"
		}
	}
	live := k
	if sel != nil {
		live = len(sel)
		width := int64(16) // string header estimate
		if sc.typ.Physical() == vector.Float64 {
			width = 8
		}
		tr.RecordCounter("scan_skipped_values", int64(k-live))
		tr.RecordCounter("scan_skipped_bytes", int64(k-live)*width)
	}
	tr.RecordPrimitiveSince(name, t0, live, live+8*live)
	return out, nil
}

// tailCodes encodes an insert-tail vector of a "<col>#" column into the
// column's code domain, once per vector. Enum dictionaries are append-only
// and grow with the delta (the existing insert contract); the attach-time
// merged dictionary of a dict-compressed disk column is a shared immutable
// snapshot — growing it would desynchronize compiled predicate translations
// and the registered "<col>#dict" mapping table — so an unseen value is an
// explicit error (checkpoint or reorganize first, then re-attach).
func (sc *scanCol) tailCodes(vals *vector.Vector) (*vector.Vector, error) {
	n := vals.Len()
	out := vector.New(sc.typ, n)
	d := sc.domainDict()
	for j := 0; j < n; j++ {
		var code int
		switch {
		case d.Typ == vector.Float64:
			code = d.CodeF64(vals.Float64s()[j])
		case sc.col.IsEnum():
			code = d.Code(vals.Strings()[j])
		default:
			c, ok := d.Lookup(vals.Strings()[j])
			if !ok {
				return nil, fmt.Errorf("core: column %s: value %q is not in the attached merged dictionary (checkpoint/reorganize and re-attach before scanning %s%s)",
					sc.col.Name, vals.Strings()[j], sc.col.Name, CodeSuffix)
			}
			code = c
		}
		if code >= 1<<(8*sc.typ.Width()) {
			return nil, fmt.Errorf("core: column %s: dictionary outgrew its %v codes (reorganize before scanning %s%s)",
				sc.col.Name, sc.typ, sc.col.Name, CodeSuffix)
		}
		if sc.typ == vector.UInt8 {
			out.UInt8s()[j] = uint8(code)
		} else {
			out.UInt16s()[j] = uint16(code)
		}
	}
	return out, nil
}

// arrayOp generates all coordinates of an N-dimensional array in
// column-major dimension order (paper Section 4.1.2).
type arrayOp struct {
	dims   []int
	schema vector.Schema
	opts   ExecOptions
	total  int
	pos    int
}

func newArrayOp(dims []int, opts ExecOptions) *arrayOp {
	total := 1
	schema := make(vector.Schema, len(dims))
	for i, d := range dims {
		total *= d
		schema[i] = vector.Field{Name: fmt.Sprintf("dim%d", i), Type: vector.Int32}
	}
	if len(dims) == 0 {
		total = 0
	}
	return &arrayOp{dims: dims, schema: schema, total: total, opts: opts}
}

func (a *arrayOp) Schema() vector.Schema { return a.schema }
func (a *arrayOp) Open() error           { a.pos = 0; return nil }
func (a *arrayOp) Close() error          { return nil }

func (a *arrayOp) Next() (*vector.Batch, error) {
	if a.pos >= a.total {
		return nil, nil
	}
	bs := a.opts.batchSize()
	if bs <= 0 {
		bs = vector.DefaultBatchSize
	}
	k := min(bs, a.total-a.pos)
	b := &vector.Batch{Schema: a.schema, Vecs: make([]*vector.Vector, len(a.dims)), N: k}
	for d := range a.dims {
		b.Vecs[d] = vector.New(vector.Int32, k)
	}
	for j := 0; j < k; j++ {
		idx := a.pos + j
		// Column-major: dim0 varies fastest.
		for d := 0; d < len(a.dims); d++ {
			b.Vecs[d].Int32s()[j] = int32(idx % a.dims[d])
			idx /= a.dims[d]
		}
	}
	a.pos += k
	return b, nil
}
