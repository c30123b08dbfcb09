package sim

import "repro/internal/core"

// QueueSnapshot reports the instantaneous occupancy of one central queue.
type QueueSnapshot struct {
	Node  int32
	Class core.QueueClass
	Len   int
	Cap   int
}

// InNetwork counts the packets currently inside the buffered engine: in
// central queues, in the injection queues, and in the link buffers.
func (e *Engine) InNetwork() int {
	total := e.driver.InNetwork()
	for _, f := range e.outFull {
		total += int(f)
	}
	for _, f := range e.inFull {
		total += int(f)
	}
	return total
}
