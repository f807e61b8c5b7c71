package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// engine's exported functions. Spans of one query execution share Query.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Query   string `json:"query,omitempty"`
}

// spanLog keeps the spans of a traced run in memory until the run ends. A
// nil *spanLog records nothing, which is how untraced runs stay untouched.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil log).
func (l *spanLog) start(parent int, name, query string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNs: now, Query: query})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// selfMs returns, per span name, the total self time in milliseconds: each
// span's duration minus the part of it its child spans cover.
func (l *spanLog) selfMs() map[string]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		// Children of concurrent clients may overlap; count the union.
		var covered, reach int64 = 0, s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	return out
}

func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
