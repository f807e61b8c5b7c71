package volcano

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile is the gprof-style per-function profiler used to regenerate
// Table 2: call counts and cumulative self time per interpreter function.
// Like gprof, instrumentation itself adds per-call overhead; profiled runs
// are for shape analysis, unprofiled runs for timing (Table 1).
type Profile struct {
	funcs map[string]*FuncStat
	order []string
	stack []frame
}

type frame struct {
	stat    *FuncStat
	start   time.Time
	childNs int64
}

// FuncStat accumulates one function's counters.
type FuncStat struct {
	Name  string
	Calls int64
	Nanos int64
}

// NsPerCall returns the average time per call.
func (f *FuncStat) NsPerCall() float64 {
	if f.Calls == 0 {
		return 0
	}
	return float64(f.Nanos) / float64(f.Calls)
}

// NewProfile creates an empty profile.
func NewProfile() *Profile {
	return &Profile{funcs: make(map[string]*FuncStat)}
}

// enter records entry into a named function; the returned closure records
// the exit. Time is attributed exclusively (self time, like gprof's
// "excl." column): a nested call's duration is subtracted from its parent.
// A nil profile is a no-op.
func (p *Profile) enter(name string) func() {
	if p == nil {
		return func() {}
	}
	s, ok := p.funcs[name]
	if !ok {
		s = &FuncStat{Name: name}
		p.funcs[name] = s
		p.order = append(p.order, name)
	}
	s.Calls++
	p.stack = append(p.stack, frame{stat: s, start: time.Now()})
	return func() {
		top := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		elapsed := time.Since(top.start).Nanoseconds()
		top.stat.Nanos += elapsed - top.childNs
		if len(p.stack) > 0 {
			p.stack[len(p.stack)-1].childNs += elapsed
		}
	}
}

// Stats returns the per-function counters sorted by descending self time.
func (p *Profile) Stats() []*FuncStat {
	out := make([]*FuncStat, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.funcs[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nanos > out[j].Nanos })
	return out
}

// Render formats the profile in the layout of the paper's Table 2: cum.%,
// excl.%, calls, avg ns/call, function name. Percentages are of the summed
// self time of all profiled functions.
func (p *Profile) Render() string {
	var b strings.Builder
	stats := p.Stats()
	var totalNs int64
	for _, s := range stats {
		totalNs += s.Nanos
	}
	fmt.Fprintf(&b, "%6s %6s %12s %10s  %s\n", "cum.", "excl.", "calls", "ns/call", "function")
	cum := 0.0
	for _, s := range stats {
		pct := 0.0
		if totalNs > 0 {
			pct = 100 * float64(s.Nanos) / float64(totalNs)
		}
		cum += pct
		fmt.Fprintf(&b, "%5.1f%% %5.1f%% %12d %10.0f  %s\n", cum, pct, s.Calls, s.NsPerCall(), s.Name)
	}
	return b.String()
}
