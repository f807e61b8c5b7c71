package core

import (
	"context"
	"errors"
	"testing"

	"x100/internal/algebra"
	"x100/internal/expr"
)

// TestScanPushdownCancel checks that a Select over a Scan stops at the next
// batch once its query is cancelled or over budget, whether the predicate
// is pushed into the scan or runs in a selectOp above it.
func TestScanPushdownCancel(t *testing.T) {
	db := parallelDB(t, 50_000)
	plan := algebra.NewSelect(algebra.NewScan("fact", "k", "v", "cat"),
		expr.AndE(expr.LTE(expr.C("v"), expr.Float(300)), expr.NEE(expr.C("cat"), expr.Str("e"))))
	for _, noCode := range []bool{false, true} {
		mode := "pushdown/"
		if noCode {
			mode = "select/"
		}
		t.Run(mode+"cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := DefaultOptions()
			opts.NoCodeDomain = noCode
			opts.life = newLifecycle(ctx, 0)
			op, err := Build(db, plan, opts)
			must0(t, err)
			must0(t, op.Open())
			defer op.Close()
			if b, err := op.Next(); err != nil || b == nil {
				t.Fatalf("first batch: %v, %v", b, err)
			}
			cancel()
			if b, err := op.Next(); !errors.Is(err, context.Canceled) {
				t.Fatalf("after cancel got batch %v, err %v; want context.Canceled", b != nil, err)
			}
		})
		t.Run(mode+"budget", func(t *testing.T) {
			opts := DefaultOptions()
			opts.NoCodeDomain = noCode
			opts.life = newLifecycle(nil, 1)
			op, err := Build(db, plan, opts)
			must0(t, err)
			must0(t, op.Open()) // the scan's buffers overrun a 1-byte budget
			defer op.Close()
			if b, err := op.Next(); !errors.Is(err, ErrMemoryBudget) {
				t.Fatalf("got batch %v, err %v; want ErrMemoryBudget", b != nil, err)
			}
		})
	}
}
