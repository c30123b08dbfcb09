package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The graph-atomic operating point: a 1953-router, 31-port dragonfly whose
// route table (about 15 MB) is larger than the host's caches, at λ=0.4,
// below the knee that lies between λ=0.5 and λ=0.7.
const (
	dragonflyA, dragonflyG = 31, 63
	graphLambda            = 0.4
	graphWindow            = 500 // cycles per throughput sample
	graphWarmWindows       = 2   // windows stepped before sampling, while the network fills
	graphTraceCycles       = 3000
)

func graphSpec(seed, warmup, measure int64) exec.RunSpec {
	return exec.RunSpec{
		Algo:     "graph-adaptive",
		Topology: fmt.Sprintf("graph:dragonfly:a=%d,g=%d", dragonflyA, dragonflyG),
		Engine:   "atomic",
		Inject:   "dynamic",
		Lambda:   graphLambda,
		Warmup:   warmup,
		Measure:  measure,
		Seed:     seed,
	}
}

// graphAtomic measures one long dynamic run of graph-adaptive routing on
// the atomic engine: set-up through RunSpec.Build and RunSpec.Source, then
// packet moves per CPU second over fixed windows of simulated cycles and
// the CPU time of each Step, checking packet conservation after every
// window.
func graphAtomic(ctx context.Context, r *run) error {
	// The measure window is open-ended: the run stops when the time is up.
	spec := graphSpec(r.seed, 200, 1<<40)
	var (
		eng   sim.Simulator
		src   sim.TrafficSource
		plan  sim.Plan
		setup []float64
	)
	for i := 0; i < 5; i++ {
		eng, src = nil, nil
		c0 := cpuTime()
		e, err := spec.Build()
		if err != nil {
			return err
		}
		s, p, err := spec.Source()
		if err != nil {
			return err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
		eng, src, plan = e, s, p
	}
	r.set("setup_s", median(setup))
	r.set("heap_mb", liveHeapMB())

	eng.Start(src, plan)
	var rates, wallRates, stepMS, stepWallMS []float64
	deadline := time.Now().Add(r.seconds)
	for w := 0; w < graphWarmWindows+3 || time.Now().Before(deadline); w++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m0 := eng.Metrics()
		var cpu, wall time.Duration
		for c := 0; c < graphWindow; c++ {
			c0, t0 := cpuTime(), time.Now()
			done, err := eng.Step()
			d, dc := time.Since(t0), cpuTime()-c0
			if done || err != nil {
				return fmt.Errorf("graph-atomic: run ended early at window %d: %v", w, err)
			}
			cpu += dc
			wall += d
			if w >= graphWarmWindows {
				stepMS = append(stepMS, ms(dc))
				stepWallMS = append(stepWallMS, ms(d))
			}
		}
		m1 := eng.Metrics()
		in := int64(eng.InNetwork())
		r.op(m1.Injected == m1.Delivered+m1.Dropped+in && m1.Dropped == 0, 1,
			"graph-atomic window %d: injected %d != delivered %d + dropped %d + in flight %d (dropped must be 0)",
			w, m1.Injected, m1.Delivered, m1.Dropped, in)
		if w >= graphWarmWindows {
			rates = append(rates, float64(m1.Moves-m0.Moves)/cpu.Seconds())
			wallRates = append(wallRates, float64(m1.Moves-m0.Moves)/wall.Seconds())
		}
	}
	p50, err := percentile(stepMS, 0.5)
	if err != nil {
		return err
	}
	r.set("ops_per_s", median(rates))
	r.set("op_p50_ms", p50)

	m := eng.Metrics()
	accepted := float64(m.Successes) / float64(m.Attempts)
	r.info("moves_per_s", median(wallRates), "1/s", len(wallRates))
	r.info("step_wall_p50_ms", median(stepWallMS), "ms", len(stepWallMS))
	r.info("accepted_frac", accepted, "frac", int(m.Attempts))
	r.label = saturationLabel(accepted)
	return nil
}

// graphLayers is the graph-atomic part of the traced run: topology and
// route-table construction timed directly, RunSpec.Build and Source, a
// stepped run with a fillTap compared against an untraced run of the same
// spec, and the cost of attaching a no-op observer.
func graphLayers(ctx context.Context, r *run, tr *tracer) error {
	const op = "graph-atomic"
	t0 := time.Now()
	g, err := topology.NewDragonfly(dragonflyA, dragonflyG)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := core.NewGraphAdaptive(g); err != nil {
		return err
	}
	t2 := time.Now()
	tr.add("topology.build", op, 0, t0, t1)
	tr.add("core.compile", op, 0, t1, t2)
	topoMS, coreMS := ms(t1.Sub(t0)), ms(t2.Sub(t1))
	r.set("topology.build_ms", topoMS)
	r.set("core.compile_ms", coreMS)

	// Untraced, traced, untraced: the overhead compares the traced run with
	// the mean of the runs around it.
	spec := graphSpec(r.seed, 200, graphTraceCycles-200)
	untraced := func() (stepResult, error) {
		eng, err := spec.Build()
		if err != nil {
			return stepResult{}, err
		}
		src, plan, err := spec.Source()
		if err != nil {
			return stepResult{}, err
		}
		return stepped(eng, src, nil, plan, nil, op)
	}
	plainA, err := untraced()
	if err != nil {
		return err
	}

	t0 = time.Now()
	eng, err := spec.Build()
	if err != nil {
		return err
	}
	t1 = time.Now()
	src, plan, err := spec.Source()
	if err != nil {
		return err
	}
	t2 = time.Now()
	tr.add("exec.build", op, 0, t0, t1)
	tr.add("exec.source", op, 0, t1, t2)
	r.set("exec.build_ms", ms(t1.Sub(t0)))
	r.set("exec.source_ms", ms(t2.Sub(t1)))
	// Build and Source each compile the spec once: topology BFS plus the
	// route table. The rest is engine and source construction.
	r.set("trace.setup_topology_core_frac", 2*(topoMS+coreMS)/ms(t2.Sub(t0)))

	tap, err := newFillTap(src, tr, op)
	if err != nil {
		return err
	}
	traced, err := stepped(eng, tap, tap, plan, tr, op)
	if err != nil {
		return err
	}
	plainB, err := untraced()
	if err != nil {
		return err
	}
	for _, plain := range []stepResult{plainA, plainB} {
		r.op(traced.m == plain.m, 1, "graph-atomic: traced metrics %+v differ from untraced %+v", traced.m, plain.m)
	}
	r.op(tap.injected.Load() == traced.m.Injected, 1, "graph-atomic: fillTap counted %d injections, engine %d",
		tap.injected.Load(), traced.m.Injected)
	r.set("trace.graph_overhead_frac", 2*float64(traced.stepNS)/float64(plainA.stepNS+plainB.stepNS)-1)

	var tot stepTotals
	tot.add(traced)
	p99, err := percentile(traced.stepUS, 0.99)
	if err != nil {
		return err
	}
	r.set("sim.step_us_p50", tot.stepP50())
	r.set("sim.step_us_p99", p99)
	r.set("sim.ns_per_move", tot.nsPerMove())
	r.set("sim.in_flight_mean", tot.inflightSum/tot.inflightSamples)
	r.set("sim.inject_fail_frac", tot.injectFail())
	r.set("sim.cycles", float64(traced.m.Cycles))
	r.set("sim.moves", float64(traced.m.Moves))
	r.set("traffic.fill_ns_per_cycle", float64(tap.fillNS.Load())/float64(traced.m.Cycles))
	r.set("traffic.injected", float64(tap.injected.Load()))

	ospec := graphSpec(r.seed, 200, 2000)
	bare, err := exec.Run(ctx, ospec, nil)
	if err != nil {
		return err
	}
	observed, err := exec.Run(ctx, ospec, obs.Base{})
	if err != nil {
		return err
	}
	r.op(bare.Metrics == observed.Metrics, 1, "graph-atomic: metrics differ with a no-op observer attached")
	r.set("obs.observer_overhead_frac", observed.ElapsedSec/bare.ElapsedSec-1)
	r.labels[op] = saturationLabel(1 - tot.injectFail())
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
