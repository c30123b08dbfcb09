package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsTasks(t *testing.T) {
	s := NewScheduler(2, 4, 8)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		err := s.TrySubmit(Task{Run: func(int) {
			n.Add(1)
			wg.Done()
		}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	s.Close()
	if n.Load() != 5 {
		t.Fatalf("ran %d tasks, want 5", n.Load())
	}
}

// A task runs on the grant it was submitted with: WorkersFor with maxCost
// 0, as the daemon asks it, gives cheap or worker-sensitive tasks one
// worker, which runs sequentially (workers 0), and expensive
// parallelizable tasks an equal split of the budget. A grant beyond the
// budget is capped at it.
func TestSchedulerWorkerGrants(t *testing.T) {
	s := NewScheduler(2, 8, 8)
	defer s.Close()
	run := func(grant int) int {
		ch := make(chan int, 1)
		if err := s.TrySubmit(Task{Workers: grant, Run: func(w int) { ch <- w }}); err != nil {
			t.Fatal(err)
		}
		return <-ch
	}
	if w := run(WorkersFor(smallCost*2, true, 8, 2, 0)); w != 4 {
		t.Errorf("expensive parallelizable task got %d workers, want 8/2=4", w)
	}
	if w := run(WorkersFor(smallCost*2, false, 8, 2, 0)); w != 0 {
		t.Errorf("non-parallelizable task got workers=%d, want 0 (sequential)", w)
	}
	if w := run(WorkersFor(1, true, 8, 2, 0)); w != 0 {
		t.Errorf("cheap task got workers=%d, want 0 (sequential)", w)
	}
	if w := run(64); w != 8 {
		t.Errorf("grant of 64 ran on %d workers, want the budget 8", w)
	}
}

// The backpressure contract the daemon's 429 path relies on: with every
// slot busy and the queue full, TrySubmit fails fast with ErrQueueFull.
func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(1, 1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := s.TrySubmit(Task{Run: func(int) { close(started); <-block }}); err != nil {
		t.Fatal(err)
	}
	<-started // the slot is now occupied
	if err := s.TrySubmit(Task{Run: func(int) { <-block }}); err != nil {
		t.Fatalf("queue of cap 1 rejected its first queued task: %v", err)
	}
	// Slot busy, queue holding one task: the next submission must bounce.
	// The dispatcher may briefly hold the queued task before blocking on
	// the pool, so allow a short settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := s.TrySubmit(Task{Run: func(int) {}})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled: TrySubmit kept succeeding")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	s.Close()
}

func TestSchedulerClosed(t *testing.T) {
	s := NewScheduler(1, 1, 4)
	s.Close()
	if err := s.TrySubmit(Task{Run: func(int) {}}); !errors.Is(err, ErrSchedClosed) {
		t.Fatalf("submit after Close: %v, want ErrSchedClosed", err)
	}
	s.Close() // idempotent
}

// Close waits for everything already admitted or queued to finish.
func TestSchedulerCloseDrains(t *testing.T) {
	s := NewScheduler(1, 1, 8)
	var n atomic.Int64
	for i := 0; i < 4; i++ {
		if err := s.TrySubmit(Task{Run: func(int) {
			time.Sleep(5 * time.Millisecond)
			n.Add(1)
		}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if n.Load() != 4 {
		t.Fatalf("Close returned with %d/4 tasks finished", n.Load())
	}
}
