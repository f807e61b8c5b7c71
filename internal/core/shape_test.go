package core

import (
	"fmt"
	"strings"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/expr"
	"x100/internal/vector"
)

// shape renders a built operator tree: operator kinds with their inputs,
// "+morsels" on a scan that claims from a morsel source, and a fragment's
// pipelines in brackets, "slot:" marking a worker that holds an admission
// slot.
func shape(op Operator) string {
	switch o := op.(type) {
	case *releaseOp:
		return shape(o.Operator)
	case *scanOp:
		s := "scan"
		if o.source != nil {
			s = "scan+morsels"
		}
		if o.fullPred != nil {
			s = "scansel(" + s + ")"
		}
		return s
	case *selectOp:
		return "select(" + shape(o.input) + ")"
	case *projectOp:
		return "project(" + shape(o.input) + ")"
	case *fetch1JoinOp:
		return "fetch1(" + shape(o.input) + ")"
	case *cartProdOp:
		return "cartprod(" + shape(o.left) + ", " + shape(o.right) + ")"
	case *hashJoinOp:
		return "hashjoin(" + shape(o.left) + ", build" + fragmentShape(o.bld.in) + ")"
	case *exchangeOp:
		return "exchange" + fragmentShape(o.in)
	case *aggrOp:
		return "aggr" + fragmentShape(o.in)
	case *orderOp:
		return "order" + fragmentShape(o.in)
	default:
		return fmt.Sprintf("%T", op)
	}
}

func fragmentShape(f *fragment) string {
	parts := make([]string, len(f.parts))
	for i, p := range f.parts {
		parts[i] = shape(p)
		if f.workers[i].slot != nil {
			parts[i] = "slot:" + parts[i]
		}
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

// TestBuildShape pins the operator trees the one compiler builds. At
// parallelism 1 every plan is the serial operator chain — no exchange,
// morsel source or worker slot, and every breaker consumes one pipeline —
// and at parallelism 2 each partitionable fragment is two slotted pipelines
// over shared morsel sources, so aggregation runs two partials, a sort two
// runs and a hash-join build two parts.
func TestBuildShape(t *testing.T) {
	db := parallelDB(t, 50_000)
	big := colstore.NewTable("bigdim")
	bk := make([]int64, 1<<15)
	for i := range bk {
		bk[i] = int64(i)
	}
	must0(t, big.AddColumn("bk", vector.Int64, bk))
	db.AddTable(big)

	sel := algebra.NewSelect(algebra.NewScan("fact", "k", "v", "g"), expr.LTE(expr.C("v"), expr.Float(300)))
	join := algebra.NewJoin(algebra.NewScan("fact", "k", "v"), algebra.NewScan("bigdim", "bk"),
		algebra.EquiCond{L: "k", R: "bk"})
	const (
		s2  = "slot:scansel(scan+morsels)"
		sc2 = "slot:scan+morsels"
		hj2 = "slot:hashjoin(scan+morsels, build[" + sc2 + " | " + sc2 + "])"
	)
	for _, tc := range []struct {
		name   string
		plan   algebra.Node
		p1, p2 string
	}{
		{"scan-select-project",
			algebra.NewProject(sel, algebra.NE("k", expr.C("k")), algebra.NE("vv", expr.MulE(expr.C("v"), expr.Float(2)))),
			"project(scansel(scan))",
			"exchange[slot:project(scansel(scan+morsels)) | slot:project(scansel(scan+morsels))]"},
		{"aggr",
			algebra.NewAggr(sel, []algebra.NamedExpr{algebra.NE("g", expr.C("g"))}, []algebra.AggExpr{algebra.Count("n")}),
			"aggr[scansel(scan)]",
			"aggr[" + s2 + " | " + s2 + "]"},
		{"order",
			algebra.NewOrder(algebra.NewScan("fact", "k", "v"), algebra.Asc(expr.C("v"))),
			"order[scan]",
			"order[" + sc2 + " | " + sc2 + "]"},
		{"topn",
			algebra.NewTopN(sel, 10, algebra.Desc(expr.C("v"))),
			"order[scansel(scan)]",
			"order[" + s2 + " | " + s2 + "]"},
		{"hashjoin",
			join,
			"hashjoin(scan, build[scan])",
			"exchange[" + hj2 + " | " + hj2 + "]"},
		{"order-over-aggr",
			algebra.NewOrder(algebra.NewAggr(sel, []algebra.NamedExpr{algebra.NE("g", expr.C("g"))},
				[]algebra.AggExpr{algebra.Count("n")}), algebra.Asc(expr.C("g"))),
			"order[aggr[scansel(scan)]]",
			"order[aggr[" + s2 + " | " + s2 + "]]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for p, want := range map[int]string{1: tc.p1, 2: tc.p2} {
				opts := DefaultOptions()
				opts.Parallelism = p
				op, err := Build(db, tc.plan, opts)
				must0(t, err)
				if got := shape(op); got != want {
					t.Errorf("parallelism %d:\n got %s\nwant %s", p, got, want)
				}
				// The built tree must also run.
				_, err = Drain(op)
				must0(t, err)
			}
		})
	}
}
