package sweep

import (
	"math"
	"sort"
	"sync"
)

// smallCost is the cost (estimated node-cycles) below which a task runs
// on a single worker: per-cycle barrier overhead beats the shard
// parallelism on small networks and short drains.
const smallCost = 1 << 20

// LPTOrder returns the indices of pending ordered longest-processing-time
// first: descending cost, ties broken by ascending Seq. Starting the most
// expensive cells first bounds the makespan tail — the classic LPT
// guarantee — so an n=14 dynamic cell never starts last and runs alone
// after every slot has drained.
func LPTOrder(jobs []Job, pending []int) []int {
	order := append([]int(nil), pending...)
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := jobs[order[a]], jobs[order[b]]
		if ja.Cost != jb.Cost {
			return ja.Cost > jb.Cost
		}
		return ja.Seq < jb.Seq
	})
	return order
}

// WorkersFor is the worker grant of a task of the given cost under a
// budget shared by `slots` concurrent tasks. Cheap tasks (below
// smallCost) and tasks whose results are not worker-invariant run
// on one worker; the rest receive a share of the budget proportional to
// their cost against maxCost, floored at budget/slots, so the dominant
// cells of a sweep (the n=14 dynamic runs) widen toward the whole machine
// instead of serializing the sweep tail on one worker. maxCost 0 — the
// daemon's case, which cannot know the costs still to come — gives every
// task the equal split budget/slots.
func WorkersFor(cost float64, parallelizable bool, budget, slots int, maxCost float64) int {
	if !parallelizable || budget <= 1 || cost < smallCost {
		return 1
	}
	w := 1
	if maxCost > 0 {
		w = int(math.Round(float64(budget) * cost / maxCost))
	}
	if base := budget / slots; w < base {
		w = base
	}
	if w < 1 {
		w = 1
	}
	if w > budget {
		w = budget
	}
	return w
}

// slotPool is a weighted admission gate: at most `jobs` cells run at once,
// and their worker grants sum to at most `budget`. Acquire blocks until
// both constraints admit the request; the Scheduler acquires in submission
// order, so admission order is deterministic even though completion order
// is not.
type slotPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    int
	workers int
}

func newSlotPool(jobs, workers int) *slotPool {
	p := &slotPool{jobs: jobs, workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquire claims one job slot and w worker tokens, blocking until granted.
// w must not exceed the pool's total budget.
func (p *slotPool) acquire(w int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.jobs < 1 || p.workers < w {
		p.cond.Wait()
	}
	p.jobs--
	p.workers -= w
}

// release returns a cell's job slot and worker tokens.
func (p *slotPool) release(w int) {
	p.mu.Lock()
	p.jobs++
	p.workers += w
	p.mu.Unlock()
	p.cond.Broadcast()
}
