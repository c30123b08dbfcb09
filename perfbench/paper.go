package main

import (
	"context"
	"fmt"
	"math"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// paperMaxN is the largest hypercube dimension of the paper-sweep workload:
// 13 cells, Tables 1-11 at n=10 and Table 12 at n=9 and n=10. The four
// λ=1 cells at n=10 take about 95% of the wall time.
const paperMaxN = 10

// paperSweep measures the cmd/tables paper suite run in process through
// sweep.BuildJobs and sweep.Run, one cell at a time on one worker, and
// checks every row against cmd/tables' stdout for the same seed run on its
// default schedule (one cell at a time on nproc workers). BENCHMARK.json
// does not list it: on the host it was built on its figures spread over
// ten seeds by up to a third of their median (see README.md), past what
// any bound the benchmark may set allows; the traced run measures its
// layers.
//
// The sweep is timed in CPU time, which host steal does not reach, and on
// one CPU. On two workers the λ=1 cells run in lockstep and the engine's
// barrier wait burns CPU for as long as the other worker's CPU is stolen;
// two one-worker cells side by side contend for the shared cache and
// memory bandwidth with each other and with the host's other guests.
// Both spread the figures over ten runs beyond the benchmark's bounds.
// The worker budget of nproc, the engine's worker pool and the sweep's
// schedule are measured in the traced run.
func paperSweep(ctx context.Context, r *run) error {
	opt := bench.Options{Seed: r.seed}
	// Building the job list takes microseconds, so each sample times a
	// batch of builds, started on a freshly collected heap so no sample
	// pays for a collection the others do not.
	const batch = 50
	var jobs []sweep.Job
	var setup []float64
	for i := 0; i < 25; i++ {
		runtime.GC()
		c0 := cpuTime()
		for k := 0; k < batch; k++ {
			j, err := sweep.BuildJobs(sweep.SuitePaper, "", paperMaxN, opt)
			if err != nil {
				return err
			}
			jobs = j
		}
		setup = append(setup, (cpuTime()-c0).Seconds()/batch)
	}
	r.set("setup_s", median(setup))
	r.set("heap_mb", liveHeapMB())

	cells := &cellCPU{start: map[string]time.Duration{}}
	so := sweep.Options{Jobs: 1, Budget: 1, Sink: cells}
	var rates, sweepS []float64
	var first []sweep.Result
	deadline := time.Now().Add(r.seconds)
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		c0, t0 := cpuTime(), time.Now()
		res, err := sweep.Run(ctx, jobs, opt, so)
		cpu := (cpuTime() - c0).Seconds()
		if err != nil {
			r.op(false, len(jobs), "sweep pass %d: %v", pass, err)
			continue
		}
		sweepS = append(sweepS, time.Since(t0).Seconds())
		rates = append(rates, float64(len(res))/cpu)
		if first == nil {
			first = res
			continue
		}
		for i := range res {
			r.op(res[i].Row == first[i].Row, 1, "%s: row differs between sweep passes", res[i].Job.ID)
		}
	}
	if first == nil {
		return fmt.Errorf("paper-sweep: every sweep pass failed")
	}
	p50, err := percentile(cells.ms, 0.5)
	if err != nil {
		return fmt.Errorf("paper-sweep cell CPU time: %w", err)
	}
	r.set("ops_per_s", median(rates))
	r.set("op_p50_ms", p50)

	// The first pass's cells are checked against the reference command.
	if err := checkTablesRows(ctx, r, first, r.nproc); err != nil {
		return err
	}

	r.info("sweep_s", median(sweepS), "s", len(sweepS))
	r.info("paper_lavg_err", lavgErr(first), "frac", len(first))
	r.label = saturationLabel(minIr(first) / 100)
	return nil
}

// cellCPU records the CPU time of each cell of a sweep whose cells run on
// one worker: the cell's goroutine is pinned to its thread from the start
// event to the done event, which the sweep sends from that goroutine, and
// the thread's CPU time over that span is the cell's own.
type cellCPU struct {
	start map[string]time.Duration
	ms    []float64
}

// OnSweepEvent implements obs.SweepSink. The sweep serializes its events
// under its own lock, so the fields need none.
func (c *cellCPU) OnSweepEvent(ev obs.SweepEvent) {
	switch ev.Kind {
	case obs.SweepJobStart:
		runtime.LockOSThread()
		c.start[ev.Job] = threadCPU()
	case obs.SweepJobDone:
		c.ms = append(c.ms, ms(threadCPU()-c.start[ev.Job]))
		runtime.UnlockOSThread()
	}
}

// checkTablesRows runs cmd/tables on the run's seed and maxn, one cell at a
// time on the given worker budget, and checks that every row it prints
// equals the row the sweep computed for that cell.
func checkTablesRows(ctx context.Context, r *run, res []sweep.Result, budget int) error {
	cmd := exec.CommandContext(ctx, r.tablesBin, "-maxn", strconv.Itoa(paperMaxN),
		"-seed", strconv.FormatInt(r.seed, 10), "-jobs", "1", "-budget", strconv.Itoa(budget))
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("reference cmd/tables run: %w", err)
	}
	var ref []string
	for _, l := range strings.Split(string(out), "\n") {
		if rowLine.MatchString(l) {
			ref = append(ref, l)
		}
	}
	lines, err := rowLines(res)
	if err != nil {
		return err
	}
	if len(ref) != len(lines) {
		r.op(false, len(lines), "cmd/tables printed %d rows, the sweep produced %d", len(ref), len(lines))
		return nil
	}
	for i, l := range lines {
		r.op(l == ref[i], 1, "%s: sweep row %q, cmd/tables row %q", res[i].Job.ID, l, ref[i])
	}
	return nil
}

// rowLine matches a table row of bench.Experiment.Format (" 10   1024 | ...");
// titles and column headers do not start with a number.
var rowLine = regexp.MustCompile(`^ *\d+ +\d+ \|`)

// rowLines renders each result's row as cmd/tables prints it.
func rowLines(res []sweep.Result) ([]string, error) {
	out := make([]string, len(res))
	for i, c := range res {
		ex, err := bench.FindTable(c.Job.Exp)
		if err != nil {
			return nil, err
		}
		block := strings.Split(strings.TrimRight(ex.Format([]bench.Row{c.Row}), "\n"), "\n")
		out[i] = block[len(block)-1]
	}
	return out, nil
}

// lavgErr is the mean relative error of L_avg against the paper's
// published value over the cells.
func lavgErr(res []sweep.Result) float64 {
	var errs []float64
	for _, c := range res {
		if p := c.Row.Paper.Lavg; p > 0 {
			errs = append(errs, math.Abs(c.Row.Lavg-p)/p)
		}
	}
	return mean(errs)
}

// minIr is the lowest effective injection rate (percent) over the dynamic
// cells: the accepted share of the offered λ=1 load.
func minIr(res []sweep.Result) float64 {
	lo := 100.0
	for _, c := range res {
		if ex, err := bench.FindTable(c.Job.Exp); err == nil && ex.Injection == bench.Dynamic {
			lo = math.Min(lo, c.Row.Ir)
		}
	}
	return lo
}

// cellSpans turns sweep progress events into one span per cell, the
// children of the sweep's root span, and remembers each cell's worker
// grant for the busy-fraction figure.
type cellSpans struct {
	tr     *tracer
	parent int64

	starts  map[string]time.Time
	workers map[string]int
}

func newCellSpans(tr *tracer, parent int64) *cellSpans {
	return &cellSpans{tr: tr, parent: parent, starts: map[string]time.Time{}, workers: map[string]int{}}
}

// OnSweepEvent implements obs.SweepSink. The sweep serializes its events
// under its own lock, so the maps need none.
func (c *cellSpans) OnSweepEvent(ev obs.SweepEvent) {
	now := time.Now()
	switch ev.Kind {
	case obs.SweepJobStart:
		c.starts[ev.Job] = now
		c.workers[ev.Job] = ev.Workers
	case obs.SweepJobDone:
		c.tr.add("bench.cell", ev.Job, c.parent, c.starts[ev.Job], now)
	}
}

// paperLayers is the paper-sweep part of the traced run: the sweep with
// one span per cell, the exec build cost of every cell spec, and a stepped
// re-run of the dynamic (λ=1) cells that dominate the sweep's wall time.
func paperLayers(ctx context.Context, r *run, tr *tracer) error {
	opt := bench.Options{Seed: r.seed}
	t0 := time.Now()
	jobs, err := sweep.BuildJobs(sweep.SuitePaper, "", paperMaxN, opt)
	if err != nil {
		return err
	}
	tr.add("sweep.build_jobs", "paper-sweep", 0, t0, time.Now())

	// The traced sweep runs cmd/tables' default schedule, one cell at a time
	// on nproc workers, so the engine's worker pool is measured here.
	// Untraced, traced, untraced: the overhead compares the traced sweep
	// with the mean of the sweeps around it.
	so := sweep.Options{Jobs: 1, Budget: r.nproc}
	var plain []sweep.Result
	untraced := 0.0
	untracedSweep := func() error {
		t0 := time.Now()
		res, err := sweep.Run(ctx, jobs, opt, so)
		untraced += time.Since(t0).Seconds() / 2
		plain = res
		return err
	}
	if err := untracedSweep(); err != nil {
		return err
	}
	traced := so
	root := tr.begin("sweep.run", "paper-sweep", 0)
	sink := newCellSpans(tr, root)
	traced.Sink = sink
	t0 = time.Now()
	res, err := sweep.Run(ctx, jobs, opt, traced)
	if err != nil {
		return err
	}
	tracedS := time.Since(t0).Seconds()
	tr.finish(root)
	if err := untracedSweep(); err != nil {
		return err
	}
	r.set("trace.sweep_overhead_frac", tracedS/untraced-1)

	var maxCell, dyn, stat, busy float64
	for i, c := range res {
		r.op(c.Row == plain[i].Row, 1, "%s: traced sweep row differs from the untraced one", c.Job.ID)
		ex, err := bench.FindTable(c.Job.Exp)
		if err != nil {
			return err
		}
		maxCell = math.Max(maxCell, c.ElapsedSec)
		if ex.Injection == bench.Dynamic {
			dyn += c.ElapsedSec
		} else {
			stat += c.ElapsedSec
		}
		busy += c.ElapsedSec * float64(sink.workers[c.Job.ID])
	}
	r.set("sweep.cell_s_max", maxCell)
	r.set("sweep.dynamic_cells_s", dyn)
	r.set("sweep.static_cells_s", stat)
	r.set("sweep.budget_busy_frac", busy/(tracedS*float64(so.Budget)))
	r.set("sweep.paper_lavg_err", lavgErr(res))
	// The traced sweep ran on nproc workers; cmd/tables runs on one.
	if err := checkTablesRows(ctx, r, res, 1); err != nil {
		return err
	}

	var buildMS float64
	var sat stepTotals
	for i, job := range jobs {
		ex, err := bench.FindTable(job.Exp)
		if err != nil {
			return err
		}
		spec, err := ex.Spec(job.Size, opt)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := spec.Build(); err != nil {
			return err
		}
		t1 := time.Now()
		tr.add("exec.build", job.ID, 0, t0, t1)
		buildMS += 1000 * t1.Sub(t0).Seconds()
		if ex.Injection != bench.Dynamic {
			continue
		}
		st, err := steppedSpec(spec, tr, job.ID)
		if err != nil {
			return err
		}
		r.op(st.m.AvgLatency() == res[i].Row.Lavg && st.m.LatencyMax == res[i].Row.Lmax,
			1, "%s: stepped re-run L_avg %.4f differs from the sweep's %.4f", job.ID, st.m.AvgLatency(), res[i].Row.Lavg)
		sat.add(st)
	}
	r.set("exec.build_ms_sum", buildMS)
	r.set("sim.sat_step_us_p50", sat.stepP50())
	r.set("sim.sat_ns_per_move", sat.nsPerMove())
	r.set("sim.sat_inject_fail_frac", sat.injectFail())
	r.set("core.dynamic_move_frac", float64(sat.dynMoves)/float64(sat.moves))
	r.labels["paper-sweep"] = saturationLabel(minIr(res) / 100)
	return nil
}
