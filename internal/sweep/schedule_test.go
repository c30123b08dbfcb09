package sweep

import (
	"reflect"
	"testing"
)

func TestLPTOrder(t *testing.T) {
	jobs := []Job{
		{Seq: 0, Cost: 10},
		{Seq: 1, Cost: 500},
		{Seq: 2, Cost: 500},
		{Seq: 3, Cost: 9000},
		{Seq: 4, Cost: 1},
	}
	got := LPTOrder(jobs, []int{0, 1, 2, 3, 4})
	want := []int{3, 1, 2, 0, 4} // desc cost, ties by ascending Seq
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LPTOrder = %v, want %v", got, want)
	}
}

func TestLPTOrderSubset(t *testing.T) {
	jobs := []Job{
		{Seq: 0, Cost: 10},
		{Seq: 1, Cost: 500},
		{Seq: 2, Cost: 9000},
	}
	pending := []int{0, 2} // job 1 already checkpointed
	got := LPTOrder(jobs, pending)
	want := []int{2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LPTOrder = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(pending, []int{0, 2}) {
		t.Fatalf("LPTOrder mutated its input: %v", pending)
	}
}

func TestWorkersFor(t *testing.T) {
	big := float64(smallCost) * 4
	cases := []struct {
		name          string
		cost          float64
		par           bool
		budget, slots int
		maxCost       float64
		want          int
	}{
		{"not parallelizable", big, false, 8, 2, big, 1},
		{"budget one", big, true, 1, 2, big, 1},
		{"below small cost", 100, true, 8, 2, big, 1},
		{"dominant cell gets full budget", big, true, 8, 2, big, 8},
		{"half-cost cell gets half", big / 2, true, 8, 2, big, 4},
		{"floor at budget/slots", smallCost, true, 8, 2, big * 100, 4},
		{"never exceeds budget", big, true, 3, 1, big / 2, 3},
		{"maxCost 0 splits equally", big, true, 8, 2, 0, 4},
		{"maxCost 0 floors at one", big, true, 3, 4, 0, 1},
	}
	for _, c := range cases {
		if got := WorkersFor(c.cost, c.par, c.budget, c.slots, c.maxCost); got != c.want {
			t.Errorf("%s: WorkersFor = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSlotPoolAdmission(t *testing.T) {
	p := newSlotPool(2, 4)
	p.acquire(3)
	p.acquire(1)
	// Pool is now full on both axes; a third acquire must block until a
	// release, and must observe the freed capacity.
	done := make(chan struct{})
	go func() {
		p.acquire(2)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("acquire succeeded with no free slot")
	default:
	}
	p.release(3)
	<-done
	p.release(1)
	p.release(2)
}
