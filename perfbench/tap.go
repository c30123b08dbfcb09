package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// fillTap wraps a batched traffic source to time and count its FillCycle
// calls. It is itself a sim.BatchSource, so the engine keeps the batched
// injection path it would take with the bare source; Wants, Take and
// Exhausted pass straight through the embedded source. The counters are
// atomic because the buffered engine fills its worker shards concurrently.
type fillTap struct {
	sim.BatchSource
	tr   *tracer
	op   string
	step atomic.Int64 // span id of the cycle being stepped, the fill spans' parent

	fillNS   atomic.Int64
	injected atomic.Int64
}

var _ sim.BatchSource = (*fillTap)(nil)

// newFillTap wraps src, which must implement sim.BatchSource: every traffic
// source in the repository does, and wrapping a scalar source would move
// the engine onto a different injection path than the one measured.
func newFillTap(src sim.TrafficSource, tr *tracer, op string) (*fillTap, error) {
	bs, ok := src.(sim.BatchSource)
	if !ok {
		return nil, fmt.Errorf("traffic source %T does not implement sim.BatchSource", src)
	}
	return &fillTap{BatchSource: bs, tr: tr, op: op}, nil
}

// FillCycle implements sim.BatchSource.
func (t *fillTap) FillCycle(cycle int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int) {
	t0 := time.Now()
	n, blocked = t.BatchSource.FillCycle(cycle, lo, hi, full, out)
	t1 := time.Now()
	t.fillNS.Add(int64(t1.Sub(t0)))
	t.injected.Add(int64(n))
	t.tr.add("traffic.fill", t.op, t.step.Load(), t0, t1)
	return n, blocked
}
