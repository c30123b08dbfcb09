package sweep

import (
	"errors"
	"sync"
)

// ErrQueueFull reports that a Scheduler's bounded submission queue is at
// capacity; the daemon maps it to HTTP 429 backpressure.
var ErrQueueFull = errors.New("sweep: job queue full")

// ErrSchedClosed reports a submission to a closed Scheduler.
var ErrSchedClosed = errors.New("sweep: scheduler closed")

// Task is one unit of work submitted to a Scheduler: its worker grant, as
// WorkersFor decides it (the scheduler caps it at its budget), and the
// function to run. Run receives the worker count to simulate with.
type Task struct {
	Workers int
	Run     func(workers int)
}

// Scheduler admits tasks through a weighted slot pool: at most `jobs`
// concurrent tasks, whose worker grants sum to at most `budget`. Tasks
// start in submission order. The sweep submits its cells longest-first and
// closes the scheduler to wait for them; the daemon submits requests as
// they arrive, behind a bounded queue, so cheap requests never starve
// behind expensive ones.
type Scheduler struct {
	pool   *slotPool
	tasks  chan Task
	budget int

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // running tasks
	loopWg sync.WaitGroup // dispatcher goroutine
}

// NewScheduler starts a scheduler with `jobs` concurrent task slots, a
// total worker budget of `budget`, and a submission queue of queueCap
// pending tasks (beyond the ones already running). jobs and budget floor
// at 1; queueCap at 0 (every submission beyond the running set is
// rejected).
func NewScheduler(jobs, budget, queueCap int) *Scheduler {
	if jobs < 1 {
		jobs = 1
	}
	if budget < 1 {
		budget = 1
	}
	if queueCap < 0 {
		queueCap = 0
	}
	s := &Scheduler{
		pool:   newSlotPool(jobs, budget),
		tasks:  make(chan Task, queueCap),
		budget: budget,
	}
	s.loopWg.Add(1)
	go s.dispatch()
	return s
}

// dispatch admits queued tasks through the slot pool, in submission order.
func (s *Scheduler) dispatch() {
	defer s.loopWg.Done()
	for t := range s.tasks {
		w := min(max(t.Workers, 1), s.budget)
		s.pool.acquire(w)
		s.wg.Add(1)
		go func(t Task, w int) {
			defer s.wg.Done()
			defer s.pool.release(w)
			// A one-worker grant means "run sequentially": Workers 0 is the
			// engines' plain single-threaded path (same results, no pool).
			if w == 1 {
				w = 0
			}
			t.Run(w)
		}(t, w)
	}
}

// TrySubmit enqueues a task without blocking. It returns ErrQueueFull when
// the bounded queue is at capacity (the backpressure signal) and
// ErrSchedClosed after Close.
func (s *Scheduler) TrySubmit(t Task) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedClosed
	}
	select {
	case s.tasks <- t:
		s.mu.Unlock()
		return nil
	default:
		s.mu.Unlock()
		return ErrQueueFull
	}
}

// QueueLen reports the number of tasks waiting for admission (not yet
// granted a slot), for the daemon's metrics page.
func (s *Scheduler) QueueLen() int { return len(s.tasks) }

// Close stops accepting tasks and waits for the queue to drain and every
// running task to finish. The scheduler does not cancel work it already
// admitted — cancel the tasks' own ctx first for a fast stop.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.tasks)
	s.mu.Unlock()
	s.loopWg.Wait()
	s.wg.Wait()
}
