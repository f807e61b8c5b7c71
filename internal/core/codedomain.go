package core

import (
	"slices"
	"strings"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/vector"
)

// This file implements the code-domain plan rewrite: group-by keys and
// hash-join keys over dictionary-backed string columns (enum columns and
// merged-dict ColumnBM columns) are replaced by their narrow code columns,
// so aggregation and join hashing/comparison run on uint8/uint16 vectors;
// the decoded strings are rehydrated only at emit — a Fetch1Join against
// the "<column>#dict" mapping table above the aggregation, exactly the
// pattern the paper (and the hand-written Q1 plan) uses for enum columns.
// The rewrite is structural: it never changes the plan's output schema, so
// code-domain and decode-first runs are differentially comparable.

// codeJoinKey annotates one hash-join equi-condition rewritten onto
// dictionary codes. The two sides keep their own dictionaries; the join
// operator builds a right-code -> left-code translation table from them, so
// probe hashing and key comparison stay narrow-native on both sides.
type codeJoinKey struct {
	idx          int // index into Join.On
	ldict, rdict *colstore.Dict
}

// rewriteCodeDomain rewrites plan bottom-up. It returns the original node
// whenever nothing below it changed, so unmodified subtrees are shared, and
// records join-key annotations into opts.codeJoins.
func rewriteCodeDomain(db *Database, n algebra.Node, opts *ExecOptions) algebra.Node {
	switch x := n.(type) {
	case *algebra.Select:
		if in := rewriteCodeDomain(db, x.Input, opts); in != x.Input {
			return algebra.NewSelect(in, x.Pred)
		}
		return x
	case *algebra.Project:
		if in := rewriteCodeDomain(db, x.Input, opts); in != x.Input {
			return algebra.NewProject(in, x.Exprs...)
		}
		return x
	case *algebra.Aggr:
		node := x
		if in := rewriteCodeDomain(db, x.Input, opts); in != x.Input {
			node = &algebra.Aggr{Input: in, GroupBy: x.GroupBy, Aggs: x.Aggs, Mode: x.Mode}
		}
		return rewriteAggrKeys(db, node, opts)
	case *algebra.Join:
		node := x
		l := rewriteCodeDomain(db, x.Left, opts)
		r := rewriteCodeDomain(db, x.Right, opts)
		if l != x.Left || r != x.Right {
			node = cloneJoin(x, l, r, x.On)
		}
		return rewriteJoinKeys(db, node, opts)
	case *algebra.Fetch1Join:
		if in := rewriteCodeDomain(db, x.Input, opts); in != x.Input {
			c := *x
			c.Input = in
			return &c
		}
		return x
	case *algebra.Order:
		if in := rewriteCodeDomain(db, x.Input, opts); in != x.Input {
			return algebra.NewOrder(in, x.Keys...)
		}
		return x
	case *algebra.TopN:
		if in := rewriteCodeDomain(db, x.Input, opts); in != x.Input {
			return algebra.NewTopN(in, x.N, x.Keys...)
		}
		return x
	default:
		return n
	}
}

func cloneJoin(x *algebra.Join, l, r algebra.Node, on []algebra.EquiCond) *algebra.Join {
	return &algebra.Join{Left: l, Right: r, Kind: x.Kind, On: on, Residual: x.Residual, MarkCol: x.MarkCol}
}

// addCodeColumn rewrites the subtree under n so that its output exposes the
// dictionary-code column of the named string column, flowing it up from the
// scan through Selects, Projects, Joins and fetch joins. It returns the
// rewritten node, the name of the exposed code column in n's output, the
// scan-level base column name (for the "<base>#dict" mapping table), and
// the storage column. ok=false leaves the plan untouched (non-code column,
// a pending insert delta, or a shape the pushdown does not handle).
func addCodeColumn(db *Database, n algebra.Node, name string, opts *ExecOptions) (algebra.Node, string, string, *colstore.Column, bool) {
	switch x := n.(type) {
	case *algebra.Scan:
		return scanCodeColumn(x, name, opts)
	case *algebra.Select:
		in, code, base, col, ok := addCodeColumn(db, x.Input, name, opts)
		if !ok {
			return nil, "", "", nil, false
		}
		return algebra.NewSelect(in, x.Pred), code, base, col, true
	case *algebra.Project:
		for _, ne := range x.Exprs {
			if ne.Alias != name {
				continue
			}
			c, isCol := ne.E.(*expr.Col)
			if !isCol {
				return nil, "", "", nil, false
			}
			in, innerCode, base, col, ok := addCodeColumn(db, x.Input, c.Name, opts)
			if !ok {
				return nil, "", "", nil, false
			}
			code := name + CodeSuffix
			exprs := slices.Clone(x.Exprs)
			if !hasAlias(exprs, code) {
				exprs = append(exprs, algebra.NE(code, expr.C(innerCode)))
			}
			return algebra.NewProject(in, exprs...), code, base, col, true
		}
		return nil, "", "", nil, false
	case *algebra.Join:
		if in, code, base, col, ok := addCodeColumn(db, x.Left, name, opts); ok {
			return cloneJoin(x, in, x.Right, x.On), code, base, col, true
		}
		if x.Kind != algebra.Inner {
			// Semi/anti/mark joins only output the left side (a same-named
			// right column would be a different attribute), and left-outer
			// joins zero-pad unmatched right rows: a padded code 0 would
			// rehydrate to dictionary value 0 instead of the empty string,
			// so right-side code columns are only safe through inner joins.
			return nil, "", "", nil, false
		}
		if in, code, base, col, ok := addCodeColumn(db, x.Right, name, opts); ok {
			return cloneJoin(x, x.Left, in, x.On), code, base, col, true
		}
		return nil, "", "", nil, false
	case *algebra.Fetch1Join:
		if fetches(x.Cols, x.As, name) {
			return nil, "", "", nil, false
		}
		in, code, base, col, ok := addCodeColumn(db, x.Input, name, opts)
		if !ok {
			return nil, "", "", nil, false
		}
		c := *x
		c.Input = in
		return &c, code, base, col, true
	default:
		return nil, "", "", nil, false
	}
}

// fetches reports whether a fetch join emits an output column called name.
func fetches(cols, as []string, name string) bool {
	for i, c := range cols {
		out := c
		if i < len(as) && as[i] != "" {
			out = as[i]
		}
		if out == name {
			return true
		}
	}
	return false
}

func hasAlias(exprs []algebra.NamedExpr, alias string) bool {
	for _, ne := range exprs {
		if ne.Alias == alias {
			return true
		}
	}
	return false
}

// scanCodeColumn exposes "<name>#" on a Scan when the named column has a
// code domain and the table has no pending insert delta (delta rows carry
// values the compiled code constants have never seen; the decode-first
// path stays correct for them). Both checks resolve through the query's
// captured view, so the decision matches what the scan will read.
func scanCodeColumn(sc *algebra.Scan, name string, opts *ExecOptions) (algebra.Node, string, string, *colstore.Column, bool) {
	v, err := opts.snaps.view(sc.Table)
	if err != nil || v.delta.NumDeltaRows() > 0 {
		return nil, "", "", nil, false
	}
	col := v.col(name)
	if col == nil {
		return nil, "", "", nil, false
	}
	if _, _, ok := col.CodeDomain(); !ok {
		return nil, "", "", nil, false
	}
	code := name + CodeSuffix
	cols := sc.Cols
	if len(cols) == 0 {
		cols = make([]string, 0, len(v.cols)+1)
		for _, c := range v.cols {
			cols = append(cols, c.Name)
		}
	} else {
		if !slices.Contains(cols, name) {
			return nil, "", "", nil, false
		}
		if slices.Contains(cols, code) {
			return sc, code, name, col, true
		}
		cols = slices.Clone(cols)
	}
	return algebra.NewScan(sc.Table, append(cols, code)...), code, name, col, true
}

// dictTableOK verifies the captured "<base>#dict" mapping table matches
// the column's dictionary value-for-value (it is a snapshot taken at
// attach/registration time; a dictionary grown since must not be
// rehydrated through it). The mapping table resolves through the query's
// snapshot set, so the check and the later Fetch1Join see the same table.
func dictTableOK(opts *ExecOptions, base string, d *colstore.Dict) bool {
	v, err := opts.snaps.view(base + DictSuffix)
	if err != nil || len(v.cols) == 0 {
		return false
	}
	c := v.cols[0]
	if c.Typ != vector.String || v.n != d.Len() {
		return false
	}
	data, err := c.Pin()
	if err != nil {
		return false
	}
	vals, ok := data.([]string)
	if !ok {
		return false
	}
	dvals := d.Strings()
	if len(dvals) < len(vals) {
		return false
	}
	for i, v := range vals {
		if dvals[i] != v {
			return false
		}
	}
	return true
}

// rewriteAggrKeys rewrites bare-column group keys over dictionary-backed
// string columns onto their code columns: the aggregation hashes and
// compares uint8/uint16 codes (auto-selecting direct aggregation for small
// domains), and a Fetch1Join against the mapping table rehydrates the
// strings only for the emitted groups. The output schema is restored by a
// final Project, so the rewrite is invisible to the rest of the plan.
func rewriteAggrKeys(db *Database, n *algebra.Aggr, opts *ExecOptions) algebra.Node {
	if n.Mode != algebra.ModeAuto || len(n.GroupBy) == 0 {
		return n
	}
	if _, isOrd := n.Input.(*algebra.Order); isOrd {
		// Ordered aggregation relies on the input sort matching the group
		// expressions; keep it intact.
		return n
	}
	input := n.Input
	groups := slices.Clone(n.GroupBy)
	type rehydration struct{ alias, codeAlias, dictTable string }
	var rhs []rehydration
	var rewrittenNames []string
	for gi, g := range groups {
		c, isCol := g.E.(*expr.Col)
		if !isCol {
			continue
		}
		in, code, base, col, ok := addCodeColumn(db, input, c.Name, opts)
		if !ok {
			continue
		}
		d, _, _ := col.CodeDomain()
		if !dictTableOK(opts, base, d) {
			continue
		}
		codeAlias := g.Alias + CodeSuffix
		input = in
		groups[gi] = algebra.NE(codeAlias, expr.C(code))
		rhs = append(rhs, rehydration{alias: g.Alias, codeAlias: codeAlias, dictTable: base + DictSuffix})
		rewrittenNames = append(rewrittenNames, c.Name)
	}
	if len(rhs) == 0 {
		return n
	}
	input = pruneRewrittenKeys(input, groups, n.Aggs, rewrittenNames)
	var out algebra.Node = &algebra.Aggr{Input: input, GroupBy: groups, Aggs: n.Aggs, Mode: n.Mode}
	for _, rh := range rhs {
		out = algebra.NewFetch1Join(out, rh.dictTable,
			expr.CastE(vector.Int32, expr.C(rh.codeAlias)), "value").Renamed(rh.alias)
	}
	// Restore the original output schema (names and order); the code-key
	// columns are dropped here.
	proj := make([]algebra.NamedExpr, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		proj = append(proj, algebra.NE(g.Alias, expr.C(g.Alias)))
	}
	for _, a := range n.Aggs {
		proj = append(proj, algebra.NE(a.Alias, expr.C(a.Alias)))
	}
	return algebra.NewProject(out, proj...)
}

// pruneRewrittenKeys drops the decoded string columns replaced by code
// keys from the scan below the aggregation when nothing else references
// them (no aggregate argument, no remaining group expression, no select
// predicate on the way down). It only walks Select chains over a Scan —
// deeper shapes keep the column, which is correct, just not minimal.
func pruneRewrittenKeys(n algebra.Node, groups []algebra.NamedExpr, aggs []algebra.AggExpr, names []string) algebra.Node {
	if len(names) == 0 {
		return n
	}
	drop := make(map[string]bool, len(names))
	for _, name := range names {
		drop[name] = true
	}
	for _, g := range groups {
		for _, c := range expr.Columns(g.E, nil) {
			delete(drop, c)
		}
	}
	for _, a := range aggs {
		if a.Arg != nil {
			for _, c := range expr.Columns(a.Arg, nil) {
				delete(drop, c)
			}
		}
	}
	return pruneScanCols(n, drop)
}

func pruneScanCols(n algebra.Node, drop map[string]bool) algebra.Node {
	if len(drop) == 0 {
		return n
	}
	switch x := n.(type) {
	case *algebra.Scan:
		if len(x.Cols) == 0 {
			return x
		}
		kept := make([]string, 0, len(x.Cols))
		for _, c := range x.Cols {
			if !drop[c] {
				kept = append(kept, c)
			}
		}
		if len(kept) == len(x.Cols) || len(kept) == 0 {
			return x
		}
		return algebra.NewScan(x.Table, kept...)
	case *algebra.Select:
		for _, c := range expr.Columns(x.Pred, nil) {
			delete(drop, c)
		}
		if in := pruneScanCols(x.Input, drop); in != x.Input {
			return algebra.NewSelect(in, x.Pred)
		}
		return x
	default:
		return n
	}
}

// rewriteJoinKeys rewrites equi-join keys where both sides are
// dictionary-backed string columns onto their code columns and records the
// translation annotation for hash-join construction. A wrapping Project
// restores the original output schema.
func rewriteJoinKeys(db *Database, n *algebra.Join, opts *ExecOptions) algebra.Node {
	if len(n.On) == 0 {
		return n
	}
	left, right := n.Left, n.Right
	on := slices.Clone(n.On)
	var keys []codeJoinKey
	for i, c := range n.On {
		if strings.HasSuffix(c.L, CodeSuffix) || strings.HasSuffix(c.R, CodeSuffix) {
			continue // already a code key (hand-written plan)
		}
		nl, lcode, _, lcol, lok := addCodeColumn(db, left, c.L, opts)
		if !lok {
			continue
		}
		nr, rcode, _, rcol, rok := addCodeColumn(db, right, c.R, opts)
		if !rok {
			continue
		}
		ld, _, _ := lcol.CodeDomain()
		rd, _, _ := rcol.CodeDomain()
		left, right = nl, nr
		on[i] = algebra.EquiCond{L: lcode, R: rcode}
		keys = append(keys, codeJoinKey{idx: i, ldict: ld, rdict: rd})
	}
	if len(keys) == 0 {
		return n
	}
	orig, err := n.Out(db)
	if err != nil {
		return n
	}
	j2 := cloneJoin(n, left, right, on)
	if opts.codeJoins == nil {
		opts.codeJoins = make(map[*algebra.Join][]codeJoinKey)
	}
	opts.codeJoins[j2] = keys
	proj := make([]algebra.NamedExpr, len(orig))
	for i, f := range orig {
		proj[i] = algebra.NE(f.Name, expr.C(f.Name))
	}
	return algebra.NewProject(j2, proj...)
}
