package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep.run", Start: 0, End: 100},
		// Overlapping children are merged: [10,50) and [40,70) cover 60.
		{ID: 2, Parent: 1, Name: "bench.cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "bench.cell", Start: 40, End: 70},
		// A child running past its parent counts only inside it: 5.
		{ID: 4, Parent: 1, Name: "bench.cell", Start: 95, End: 120},
		// Grandchildren reduce their parent's self time only.
		{ID: 5, Parent: 2, Name: "exec.build", Start: 20, End: 30},
		{ID: 6, Name: "exec.build", Start: 200, End: 204},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"sweep": 100 - 60 - 5,
		"bench": (40 - 10) + 30 + 25,
		"exec":  10 + 4,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %d, want %d", l, got[l], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("sim.run", "op", 0)
	t0 := time.Now()
	child := tr.add("sim.step", "op", root, t0, t0.Add(time.Millisecond))
	tr.finish(root)
	if root != 1 || child != 2 || tr.spans[1].Parent != root {
		t.Fatalf("ids root=%d child=%d spans=%+v", root, child, tr.spans)
	}
	if tr.spans[0].End < tr.spans[0].Start {
		t.Errorf("finished span ends before it starts: %+v", tr.spans[0])
	}
	var off *tracer // the untraced passes: records nothing, never fails
	if id := off.begin("sim.run", "op", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.finish(0)
	off.add("sim.step", "op", 0, t0, t0)
}
