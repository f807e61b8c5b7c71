package trace

import (
	"strings"
	"testing"
	"time"
)

func TestDisabledCollectorIsNoop(t *testing.T) {
	var c *Collector // nil collector
	if !c.Now().IsZero() {
		t.Fatal("nil collector Now must be zero")
	}
	c.RecordPrimitiveSince("x", time.Now(), 1, 1) // must not panic
	c.RecordOperatorSince("x", 1, time.Now())
	c.Begin()
	c.End()
	zero := &Collector{} // disabled
	if !zero.Now().IsZero() {
		t.Fatal("disabled collector Now must be zero")
	}
}

func TestCollectAndRender(t *testing.T) {
	c := New()
	c.Begin()
	t0 := c.Now()
	if t0.IsZero() {
		t.Fatal("enabled collector must return real time")
	}
	time.Sleep(time.Millisecond)
	c.RecordPrimitiveSince("map_add_flt_col_flt_col", t0, 1000, 24000)
	c.RecordPrimitiveSince("map_add_flt_col_flt_col", c.Now(), 500, 12000)
	c.RecordOperatorSince("Select", 1500, t0)
	c.RecordOperatorSince("Select", 1500, time.Time{}) // untraced start: ignored
	c.End()

	prims := c.Primitives()
	if len(prims) != 1 || prims[0].Calls != 2 || prims[0].Tuples != 1500 {
		t.Fatalf("prims: %+v", prims)
	}
	if prims[0].NsPerTuple() <= 0 || prims[0].MBPerSec() <= 0 || prims[0].CyclesPerTuple() <= 0 {
		t.Fatal("derived metrics must be positive")
	}
	ops := c.Operators()
	if len(ops) != 1 || ops[0].Tuples != 1500 {
		t.Fatalf("ops: %+v", ops)
	}
	if c.Total() <= 0 {
		t.Fatal("total")
	}
	out := c.Render()
	for _, want := range []string{"map_add_flt_col_flt_col", "Select", "X100 primitive", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	top := c.TopPrimitives(5)
	if len(top) != 1 {
		t.Fatal("top")
	}
}

func TestZeroDivisionSafe(t *testing.T) {
	s := &Stat{Name: "x"}
	if s.MBPerSec() != 0 || s.NsPerTuple() != 0 || s.CyclesPerTuple() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}
