package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (the exclusive method),
// which is the rule the regression gate applies to a set of runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks, clamped to the sample.
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// sample is one timed operation of a workload window.
type sample struct {
	query  int // index into the workload's query list
	ns     int64
	rows   int // rows the query returned
	traced bool
}

// latencySummary reduces a window's samples to the latency metrics: the
// overall median and 95th percentile in milliseconds, and the geometric mean
// over the distinct queries of each query's median. perQuery is indexed like
// the workload's query list; a query without a sample has 0.
func latencySummary(samples []sample, nQueries int) (p50, p95, gm float64, perQuery []float64) {
	all := make([]float64, 0, len(samples))
	byQuery := make([][]float64, nQueries)
	for _, s := range samples {
		ms := float64(s.ns) / 1e6
		all = append(all, ms)
		byQuery[s.query] = append(byQuery[s.query], ms)
	}
	sort.Float64s(all)
	perQuery = make([]float64, nQueries)
	var seen []float64
	for i, q := range byQuery {
		if len(q) > 0 {
			perQuery[i] = median(q)
			seen = append(seen, perQuery[i])
		}
	}
	return percentile(all, 50), percentile(all, 95), geomean(seen), perQuery
}

// timeReps calls fn until it has run maxReps times or, after minReps, budget
// has elapsed, and returns each call's duration in nanoseconds.
func timeReps(minReps, maxReps int, budget time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < maxReps && (len(out) < minReps || time.Since(start) < budget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out, nil
}

var pageSize = float64(os.Getpagesize())

// rssMiB reads the resident set size of a process from /proc/<pid>/statm.
func rssMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm of %d: %q", pid, b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * pageSize / (1 << 20), nil
}

// rssSampler polls a process's resident set size and keeps the peak. The
// peak of the timed window, not VmHWM, is reported, so that what set-up
// allocated and freed (the generator's buffers) does not hide what serving
// the workload holds.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak float64
}

func startRSSSampler(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.peak, _ = rssMiB(pid)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, err := rssMiB(pid); err == nil && v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	s.done.Wait()
	return s.peak
}

// procWchar reads the bytes a process has passed to write calls so far.
func procWchar(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/%d/io", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
