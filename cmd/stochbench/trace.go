package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one shard share its index; -1 marks spans
// that belong to no single shard.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Shard  int    `json:"shard"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. It is safe for concurrent use (runner spans of parallel shards).
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, shard int) int {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Shard: shard, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

func (t *tracer) setShard(id, shard int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Shard = shard
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that the union of its children's intervals covers. Children may nest,
// overlap each other (concurrent shards) or stick out of the parent; only
// the covered part inside the parent counts.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		cur := [2]int64{-1, -1}
		flush := func() {
			if cur[1] > cur[0] {
				covered += cur[1] - cur[0]
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				flush()
				cur = [2]int64{lo, hi}
				continue
			}
			cur[1] = max(cur[1], hi)
		}
		flush()
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfRow is one line of the per-workload self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTable aggregates spans by name, sorted by name.
func selfTable(spans []span) []selfRow {
	self := selfTimes(spans)
	var rows []selfRow
	at := map[string]int{}
	for i, s := range spans {
		k, ok := at[s.Name]
		if !ok {
			k = len(rows)
			at[s.Name] = k
			rows = append(rows, selfRow{Name: s.Name})
		}
		rows[k].Count++
		rows[k].TotalMS += float64(s.End-s.Start) / 1e6
		rows[k].SelfMS += float64(self[i]) / 1e6
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
	return rows
}

func printSelfTable(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "# self time, %s traced pass (ms; self = duration minus the union of child spans)\n", workload)
	fmt.Fprintf(w, "# %-22s %7s %12s %12s\n", "span", "count", "total", "self")
	for _, r := range rows {
		fmt.Fprintf(w, "# %-22s %7d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}
