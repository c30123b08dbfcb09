package main

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sim"
)

// stepResult is what a stepped run measured: host time per Step, sampled
// in-flight counts, and the engine's metrics at the end.
type stepResult struct {
	m        sim.Metrics
	stepUS   []float64
	stepNS   int64
	inflight []float64
}

// stepped drives eng through plan with Start and Step, timing every cycle,
// until the plan completes. With a tracer, each cycle is a sim.step span
// under one sim.run span, and tap (when non-nil) parents its traffic.fill
// spans on the cycle in progress.
func stepped(eng sim.Simulator, src sim.TrafficSource, tap *fillTap, plan sim.Plan, tr *tracer, op string) (stepResult, error) {
	var res stepResult
	root := tr.begin("sim.run", op, 0)
	eng.Start(src, plan)
	for i := 0; ; i++ {
		id := tr.begin("sim.step", op, root)
		if tap != nil {
			tap.step.Store(id)
		}
		t0 := time.Now()
		done, err := eng.Step()
		d := time.Since(t0)
		tr.finish(id)
		res.stepNS += int64(d)
		res.stepUS = append(res.stepUS, float64(d)/1e3)
		if i%16 == 0 {
			res.inflight = append(res.inflight, float64(eng.InNetwork()))
		}
		if done {
			if err != nil {
				return res, fmt.Errorf("%s: %w", op, err)
			}
			break
		}
	}
	tr.finish(root)
	res.m = eng.Metrics()
	return res, nil
}

// steppedSpec builds spec through its public RunSpec constructors and runs
// it stepped, with the traffic source behind a fillTap.
func steppedSpec(spec exec.RunSpec, tr *tracer, op string) (stepResult, error) {
	t0 := time.Now()
	eng, err := spec.Build()
	if err != nil {
		return stepResult{}, err
	}
	t1 := time.Now()
	src, plan, err := spec.Source()
	if err != nil {
		return stepResult{}, err
	}
	tr.add("exec.build", op, 0, t0, t1)
	tr.add("exec.source", op, 0, t1, time.Now())
	tap, err := newFillTap(src, tr, op)
	if err != nil {
		return stepResult{}, err
	}
	return stepped(eng, tap, tap, plan, tr, op)
}

// stepTotals sums stepped runs.
type stepTotals struct {
	stepUS                       []float64
	stepNS                       int64
	moves, dynMoves              int64
	attempts, successes          int64
	inflightSum, inflightSamples float64
}

func (t *stepTotals) add(r stepResult) {
	t.stepUS = append(t.stepUS, r.stepUS...)
	t.stepNS += r.stepNS
	t.moves += r.m.Moves
	t.dynMoves += r.m.DynamicMoves
	t.attempts += r.m.Attempts
	t.successes += r.m.Successes
	for _, v := range r.inflight {
		t.inflightSum += v
	}
	t.inflightSamples += float64(len(r.inflight))
}

func (t *stepTotals) stepP50() float64 { return median(t.stepUS) }

func (t *stepTotals) nsPerMove() float64 { return float64(t.stepNS) / float64(t.moves) }

// injectFail is the share of injection attempts in the measured window
// that met a full injection queue.
func (t *stepTotals) injectFail() float64 {
	return 1 - float64(t.successes)/float64(t.attempts)
}
