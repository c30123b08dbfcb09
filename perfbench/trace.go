package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Layer is the part of
// Name before the first dot ("exec.build" belongs to layer "exec"). Op is
// the request or cell id shared by every span of one operation; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; they are written out once, when the run
// ends, so file I/O never lands inside a measured interval. A nil *tracer
// records nothing, which is how the untraced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, op string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span whose end is set later by finish; children recorded
// in between can name it as their parent.
func (t *tracer) begin(name, op string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfTimes returns each layer's self time in nanoseconds: the sum over its
// spans of the span's duration minus the part of that interval its child
// spans cover. Overlapping children (cells running side by side under one
// sweep) are merged before subtracting, so no interval counts twice.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.layer()] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered measures the union of the intervals clipped to [lo, hi).
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range clipped {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
