package sim

import "repro/internal/core"

// QueueSnapshot reports the instantaneous occupancy of one central queue.
type QueueSnapshot struct {
	Node  int32
	Class core.QueueClass
	Len   int
	Cap   int
}

// Snapshot invokes f for every central queue with its current occupancy.
// It must not be called while a Run* is in progress (the engines are not
// reentrant); its intended use is from an Observer's OnCycle probe or after a run, to
// study where congestion accumulates — e.g. the paper's observation that
// without dynamic links traffic concentrates around node 1...1.
func (e *Engine) Snapshot(f func(QueueSnapshot)) {
	for u := 0; u < e.nodes; u++ {
		for c := 0; c < e.classes; c++ {
			f(QueueSnapshot{
				Node: int32(u), Class: core.QueueClass(c),
				Len: int(e.qlen[u*e.classes+c]), Cap: e.queueCap,
			})
		}
	}
}

// Snapshot invokes f for every central queue of the atomic engine.
func (e *AtomicEngine) Snapshot(f func(QueueSnapshot)) {
	for u := 0; u < e.nodes; u++ {
		for c := 0; c < e.classes; c++ {
			f(QueueSnapshot{
				Node: int32(u), Class: core.QueueClass(c),
				Len: int(e.qlen[u*e.classes+c]), Cap: e.queueCap,
			})
		}
	}
}

// InNetwork counts the packets currently inside the buffered engine: in
// central queues, in the injection queues, and in the link buffers. At any
// phase boundary Injected == Delivered + InNetwork must hold exactly; the
// conservation tests assert it every cycle.
func (e *Engine) InNetwork() int {
	total := 0
	for _, l := range e.qlen {
		total += int(l)
	}
	for i := range e.injQ {
		if e.injQ[i].full {
			total++
		}
	}
	for _, f := range e.outFull {
		total += int(f)
	}
	for _, f := range e.inFull {
		total += int(f)
	}
	return total
}

// InNetwork counts the packets currently inside the atomic engine.
func (e *AtomicEngine) InNetwork() int {
	total := 0
	for _, l := range e.qlen {
		total += int(l)
	}
	for i := range e.injQ {
		if e.injQ[i].full {
			total++
		}
	}
	return total
}
