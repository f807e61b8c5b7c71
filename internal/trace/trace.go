// Package trace implements the detailed profiling support of X100
// (Section 5.1, Table 5): per-primitive and per-operator counters — call
// counts, tuples processed, elapsed time, and bandwidth — collected during
// query execution and rendered in the paper's trace-table format.
//
// The paper reads low-level CPU cycle counters; the Go stdlib cannot, so
// time is wall-clock and "cycles/tuple" is derived from a configurable
// nominal clock frequency purely for comparability with the paper's tables.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// NominalGHz is the clock frequency used to convert ns/tuple into a
// cycles/tuple estimate in rendered traces. It is presentation only.
var NominalGHz = 3.0

// Stat accumulates counters for one primitive or operator.
type Stat struct {
	Name   string
	Calls  int64
	Tuples int64
	Bytes  int64
	Nanos  int64
}

// MBPerSec returns the achieved bandwidth in MB/s (input+output bytes).
func (s *Stat) MBPerSec() float64 {
	if s.Nanos == 0 {
		return 0
	}
	return float64(s.Bytes) / 1e6 / (float64(s.Nanos) / 1e9)
}

// NsPerTuple returns the average time per tuple in nanoseconds.
func (s *Stat) NsPerTuple() float64 {
	if s.Tuples == 0 {
		return 0
	}
	return float64(s.Nanos) / float64(s.Tuples)
}

// CyclesPerTuple estimates cycles/tuple at the nominal clock.
func (s *Stat) CyclesPerTuple() float64 {
	return s.NsPerTuple() * NominalGHz
}

// Collector gathers stats during one query execution. The zero Collector is
// disabled: Record* calls are cheap no-ops so production paths can leave
// tracing statements in place.
type Collector struct {
	Enabled  bool
	prims    map[string]*Stat
	ops      map[string]*Stat
	counters map[string]*Counter
	primSeq  []string
	opSeq    []string
	ctrSeq   []string
	start    time.Time
	total    time.Duration
}

// Counter is a named event counter (no timing attached): decoded vs
// skipped values on the scan path, code-domain vs decode-first predicate
// evaluations, and similar observability totals.
type Counter struct {
	Name  string
	Value int64
}

// New returns an enabled collector.
func New() *Collector {
	return &Collector{
		Enabled:  true,
		prims:    make(map[string]*Stat),
		ops:      make(map[string]*Stat),
		counters: make(map[string]*Counter),
	}
}

// Begin marks the start of query execution.
func (c *Collector) Begin() {
	if c == nil || !c.Enabled {
		return
	}
	c.start = time.Now()
}

// End marks the end of query execution.
func (c *Collector) End() {
	if c == nil || !c.Enabled {
		return
	}
	c.total = time.Since(c.start)
}

// Total returns the wall-clock time between Begin and End.
func (c *Collector) Total() time.Duration {
	if c == nil {
		return 0
	}
	return c.total
}

// Now returns the current time when tracing is enabled, else the zero time;
// paired with RecordPrimitiveSince it keeps disabled-path cost to one branch.
func (c *Collector) Now() time.Time {
	if c == nil || !c.Enabled {
		return time.Time{}
	}
	return time.Now()
}

// RecordPrimitiveSince accumulates one primitive invocation that started at
// t0 (obtained from Now), processing n tuples and touching bytes bytes.
func (c *Collector) RecordPrimitiveSince(name string, t0 time.Time, n, bytes int) {
	if c == nil || !c.Enabled || t0.IsZero() {
		return
	}
	c.record(c.prims, &c.primSeq, name, n, bytes, time.Since(t0).Nanoseconds())
}

// RecordCounter adds n to a named event counter. Unlike primitives and
// operators, counters carry no timing — they count data-path events such as
// decoded vs skipped values or code-domain predicate evaluations.
func (c *Collector) RecordCounter(name string, n int64) {
	if c == nil || !c.Enabled || n == 0 {
		return
	}
	if c.counters == nil {
		c.counters = make(map[string]*Counter)
	}
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{Name: name}
		c.counters[name] = ctr
		c.ctrSeq = append(c.ctrSeq, name)
	}
	ctr.Value += n
}

// RecordOperatorSince accumulates time attributed to an algebra operator
// since t0 (obtained from Now); a zero t0, taken with tracing off, records
// nothing, so untraced operators never read the clock.
func (c *Collector) RecordOperatorSince(name string, n int, t0 time.Time) {
	if c == nil || !c.Enabled || t0.IsZero() {
		return
	}
	c.record(c.ops, &c.opSeq, name, n, 0, time.Since(t0).Nanoseconds())
}

func (c *Collector) record(m map[string]*Stat, seq *[]string, name string, n, bytes int, ns int64) {
	s, ok := m[name]
	if !ok {
		s = &Stat{Name: name}
		m[name] = s
		*seq = append(*seq, name)
	}
	s.Calls++
	s.Tuples += int64(n)
	s.Bytes += int64(bytes)
	s.Nanos += ns
}

// Merge folds the counters of other into c. Parallel execution gives each
// worker pipeline its own Collector (Record* calls are not synchronized)
// and merges them into the query's main collector when the workers join.
func (c *Collector) Merge(other *Collector) {
	if c == nil || !c.Enabled || other == nil || !other.Enabled {
		return
	}
	merge := func(m map[string]*Stat, seq *[]string, src map[string]*Stat, srcSeq []string) {
		for _, name := range srcSeq {
			s := src[name]
			d, ok := m[name]
			if !ok {
				d = &Stat{Name: name}
				m[name] = d
				*seq = append(*seq, name)
			}
			d.Calls += s.Calls
			d.Tuples += s.Tuples
			d.Bytes += s.Bytes
			d.Nanos += s.Nanos
		}
	}
	merge(c.prims, &c.primSeq, other.prims, other.primSeq)
	merge(c.ops, &c.opSeq, other.ops, other.opSeq)
	for _, name := range other.ctrSeq {
		c.RecordCounter(name, other.counters[name].Value)
	}
}

// Primitives returns primitive stats in first-seen order.
func (c *Collector) Primitives() []*Stat { return c.ordered(c.prims, c.primSeq) }

// Counters returns event counters in first-seen order.
func (c *Collector) Counters() []*Counter {
	out := make([]*Counter, 0, len(c.ctrSeq))
	for _, n := range c.ctrSeq {
		out = append(out, c.counters[n])
	}
	return out
}

// CounterValue returns the value of a named counter (0 if never recorded).
func (c *Collector) CounterValue(name string) int64 {
	if c == nil || c.counters == nil {
		return 0
	}
	if ctr, ok := c.counters[name]; ok {
		return ctr.Value
	}
	return 0
}

// Operators returns operator stats in first-seen order.
func (c *Collector) Operators() []*Stat { return c.ordered(c.ops, c.opSeq) }

func (c *Collector) ordered(m map[string]*Stat, seq []string) []*Stat {
	out := make([]*Stat, 0, len(seq))
	for _, n := range seq {
		out = append(out, m[n])
	}
	return out
}

// Render formats the collector in the layout of the paper's Table 5: the
// primitive-level block on top, the operator-level block below.
func (c *Collector) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %12s %9s %7s  %s\n",
		"input count", "total MB", "time (us)", "BW MB/s", "cyc/tup", "X100 primitive")
	for _, s := range c.Primitives() {
		fmt.Fprintf(&b, "%12d %10.1f %12.0f %9.0f %7.1f  %s\n",
			s.Tuples, float64(s.Bytes)/1e6, float64(s.Nanos)/1e3, s.MBPerSec(), s.CyclesPerTuple(), s.Name)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%12s %12s  %s\n", "tuples", "time (us)", "X100 operator")
	for _, s := range c.Operators() {
		fmt.Fprintf(&b, "%12d %12.0f  %s\n", s.Tuples, float64(s.Nanos)/1e3, s.Name)
	}
	if len(c.ctrSeq) > 0 {
		b.WriteString("\n")
		fmt.Fprintf(&b, "%12s  %s\n", "count", "X100 counter")
		for _, ctr := range c.Counters() {
			fmt.Fprintf(&b, "%12d  %s\n", ctr.Value, ctr.Name)
		}
	}
	if c.total > 0 {
		fmt.Fprintf(&b, "\nTOTAL %12.0f us\n", float64(c.total.Nanoseconds())/1e3)
	}
	return b.String()
}

// TopPrimitives returns up to k primitive stats sorted by descending time,
// for profile-style summaries.
func (c *Collector) TopPrimitives(k int) []*Stat {
	out := c.Primitives()
	sort.Slice(out, func(i, j int) bool { return out[i].Nanos > out[j].Nanos })
	if len(out) > k {
		out = out[:k]
	}
	return out
}
