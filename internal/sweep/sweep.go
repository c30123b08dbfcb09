// Package sweep is the parallel orchestrator behind cmd/tables and the
// scheduler behind routesimd. BuildJobs turns the paper's evaluation
// (bench.Tables, bench.ExtendedSuite) into a flat list of independent
// (experiment, size) cells, each an exec.RunSpec compiled once, with its
// cost and parallelism taken from the compiled spec. Run submits the
// pending cells longest-processing-time-first to a Scheduler, the same one
// the daemon feeds in arrival order: a bounded slot pool that splits a
// global worker budget between concurrent tasks and per-simulation
// Workers, with WorkersFor deciding every grant. With a result store
// configured, each completed cell is stored under the spec's fingerprint —
// the key and blob routesimd uses — so a killed sweep resumes instead of
// restarting, and sweep and daemon share one cache.
//
// Determinism: every cell is an independent, bit-deterministic simulation
// whose results do not depend on the Workers count (credited algorithms
// and the atomic engine, the exceptions, run on one worker whatever the
// grant or -workers asks), and merged results are ordered by the cells'
// canonical sequence — so the sweep's output is bit-identical regardless of
// the concurrency level, scheduling interleaving, or a kill/resume cycle
// in the middle.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Suite selectors accepted by BuildJobs, mirroring cmd/tables -suite.
const (
	SuitePaper    = "paper"
	SuiteExtended = "extended"
	SuiteAll      = "all"
)

// Job is one schedulable cell of a sweep: a single (experiment, size) row,
// compiled once. A job list may be run any number of times.
type Job struct {
	ID    string // "table9/n12", "ext-mesh-random-n/side16"
	Suite string // SuitePaper or SuiteExtended
	Exp   string // experiment id within the suite
	Size  int    // hypercube dimension, or the topology's size parameter
	Seq   int    // canonical output position (the sequential run's order)
	// Cost is the cell's estimated work in node-cycles
	// (exec.Compiled.Cost). It drives the LPT schedule, the worker split,
	// and the progress ETA — only relative accuracy matters.
	Cost float64
	// Parallelizable cells may be granted Workers > 1: their results are
	// invariant under the worker count (exec.Compiled.Parallelizable).
	Parallelizable bool

	ex experiment
	c  *exec.Compiled
}

// BuildJobs flattens the selected experiments into the sweep's job list, in
// canonical (sequential-output) order, compiling each cell's RunSpec.
// table, when non-empty, selects one experiment by id and overrides suite;
// maxN bounds the hypercube dimension of paper cells (0 = all) and is
// ignored for extended cells, matching the sequential path.
func BuildJobs(suite, table string, maxN int, opt bench.Options) ([]Job, error) {
	var paper []bench.Experiment
	var ext []bench.Extended
	switch {
	case table != "":
		if ex, err := bench.FindTable(table); err == nil {
			paper = []bench.Experiment{ex}
		} else if xe, err := bench.FindExtended(table); err == nil {
			ext = []bench.Extended{xe}
		} else {
			return nil, fmt.Errorf("sweep: unknown experiment %q", table)
		}
	case suite == SuitePaper:
		paper = bench.Tables()
	case suite == SuiteExtended:
		ext = bench.ExtendedSuite()
	case suite == SuiteAll:
		paper = bench.Tables()
		ext = bench.ExtendedSuite()
	default:
		return nil, fmt.Errorf("sweep: unknown suite %q (want paper|extended|all)", suite)
	}

	var jobs []Job
	add := func(id, suite, exp string, size int, ex experiment) error {
		spec, err := ex.Spec(size, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		c, err := spec.Compile()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		jobs = append(jobs, Job{
			ID: id, Suite: suite, Exp: exp, Size: size, Seq: len(jobs),
			Cost: c.Cost(), Parallelizable: c.Parallelizable(),
			ex: ex, c: c,
		})
		return nil
	}
	for _, ex := range paper {
		for _, d := range ex.Dims() {
			if maxN > 0 && d > maxN {
				continue
			}
			if err := add(fmt.Sprintf("%s/n%d", ex.ID, d), SuitePaper, ex.ID, d, ex); err != nil {
				return nil, err
			}
		}
	}
	for _, ex := range ext {
		for _, s := range ex.Sizes {
			if err := add(fmt.Sprintf("%s/%s%d", ex.ID, ex.SizeLabel, s), SuiteExtended, ex.ID, s, ex); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// Result is one completed cell, in canonical order in Run's result slice.
type Result struct {
	Job        Job
	Row        bench.Row
	ElapsedSec float64
	Cached     bool // served from the result store, not re-run
}

// ErrStopped reports that the sweep hit Options.StopAfter and exited early
// on purpose; the result store holds the completed cells.
var ErrStopped = errors.New("sweep: stopped after requested number of cells")

// Options tunes a sweep run. The zero value runs sequentially with no
// caching — the exact behavior of the old cmd/tables loop.
type Options struct {
	Jobs   int // concurrent cells (default 1)
	Budget int // total worker budget across concurrent cells (default GOMAXPROCS)
	// FixedWorkers runs every parallelizable cell on this many workers
	// (the -workers flag, capped at Budget); 0 lets WorkersFor split Budget
	// by cost. Cells whose results depend on the worker count run on one
	// worker either way.
	FixedWorkers int
	// Store caches cell results under RunSpec.Fingerprint (nil = no
	// caching): a cell already stored is served from it, and every
	// executed cell is put there. Workers is not part of the fingerprint —
	// results are worker-invariant — so the scheduler's per-cell worker
	// grants never invalidate a stored cell.
	Store *store.Store
	// StopAfter ends the sweep with ErrStopped once that many cells have
	// completed in this run (0 = run to completion); the deterministic
	// "kill" half of the kill/resume tests and CI smoke job.
	StopAfter int
	Sink      obs.SweepSink // progress events (nil = none)
}

func (o *Options) fill() {
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	if o.Budget < 1 {
		o.Budget = runtime.GOMAXPROCS(0)
	}
}

// grant is the worker count of a job under the sweep's options.
func (o *Options) grant(job Job, maxCost float64) int {
	if o.FixedWorkers > 0 && job.Parallelizable {
		return min(o.FixedWorkers, o.Budget)
	}
	return WorkersFor(job.Cost, job.Parallelizable, o.Budget, o.Jobs, maxCost)
}

// experiment is what a sweep needs of a paper table or an extended
// experiment: the RunSpec of one cell and the row built from its metrics.
type experiment interface {
	Spec(size int, opt bench.Options) (exec.RunSpec, error)
	Row(size int, m sim.Metrics) bench.Row
}

// cachedResult returns the stored exec.Result under fp, if the store holds
// one that decodes; anything else is a miss and the cell re-runs.
func cachedResult(st *store.Store, fp string) (exec.Result, bool) {
	if st == nil {
		return exec.Result{}, false
	}
	blob, ok := st.Get(fp)
	if !ok {
		return exec.Result{}, false
	}
	var res exec.Result
	if err := json.Unmarshal(blob, &res); err != nil {
		return exec.Result{}, false
	}
	return res, true
}

// Run executes the jobs under the sweep options and returns one Result per
// job, in the jobs' (canonical) order. Each job runs the spec BuildJobs
// compiled for it from the options it was given, so opt goes unused. The
// pending cells are submitted longest-first to a Scheduler. On ErrStopped
// or cancellation the cells that had not started are skipped and their
// results are zero; completed cells are already in the result store when
// one is configured.
func Run(ctx context.Context, jobs []Job, opt bench.Options, o Options) ([]Result, error) {
	o.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	buildID := bench.BuildID()

	results := make([]Result, len(jobs))
	fps := make([]string, len(jobs))
	prog := newProgress(jobs, o.Sink)
	var pending []int
	maxCost := 0.0
	for i, job := range jobs {
		fps[i] = job.c.Spec().Fingerprint(buildID)
		if res, ok := cachedResult(o.Store, fps[i]); ok {
			results[i] = Result{Job: job, Row: job.ex.Row(job.Size, res.Metrics), ElapsedSec: res.ElapsedSec, Cached: true}
			prog.cached(job)
			continue
		}
		pending = append(pending, i)
		maxCost = max(maxCost, job.Cost)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sched := NewScheduler(o.Jobs, o.Budget, len(pending))

	var (
		mu       sync.Mutex
		firstErr error
		executed int
		stopped  bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil && !errors.Is(err, context.Canceled) {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for _, idx := range LPTOrder(jobs, pending) {
		job, w := jobs[idx], o.grant(jobs[idx], maxCost)
		err := sched.TrySubmit(Task{Workers: w, Run: func(workers int) {
			if runCtx.Err() != nil {
				return // stopped or canceled before this cell's turn
			}
			prog.start(job, w)
			t0 := time.Now()
			res, err := job.c.WithWorkers(workers).Run(runCtx, nil)
			elapsed := time.Since(t0).Seconds()
			if err == nil && o.Store != nil {
				err = putResult(o.Store, fps[idx], res)
			}
			if err != nil {
				fail(fmt.Errorf("%s: %w", job.ID, err))
				return
			}

			mu.Lock()
			results[idx] = Result{Job: job, Row: job.ex.Row(job.Size, res.Metrics), ElapsedSec: elapsed}
			executed++
			stopNow := o.StopAfter > 0 && executed >= o.StopAfter && !stopped
			if stopNow {
				stopped = true
			}
			mu.Unlock()
			prog.done(job)
			if stopNow {
				cancel()
			}
		}})
		if err != nil { // the queue holds every pending cell; never full
			fail(err)
			break
		}
	}
	sched.Close()

	switch {
	case firstErr != nil:
		return results, firstErr
	case stopped:
		return results, ErrStopped
	case ctx.Err() != nil:
		return results, ctx.Err()
	}
	prog.sweepDone()
	return results, nil
}

// putResult stores a freshly executed cell exactly as the daemon stores a
// POSTed run: the JSON of its exec.Result under the spec's fingerprint.
func putResult(st *store.Store, fp string, res exec.Result) error {
	res.FP = fp
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return st.Put(fp, blob)
}

// progress aggregates completion state and derives the events' ETA from the
// cost model: the rate is measured over executed cost only, so resumed
// (cached) cells advance the progress fraction without skewing the rate.
type progress struct {
	sink obs.SweepSink
	t0   time.Time

	mu        sync.Mutex
	doneCells int
	total     int
	costDone  float64
	costTotal float64
	execDone  float64 // executed (non-cached) cost completed
	execTotal float64 // executed cost scheduled for this run
}

func newProgress(jobs []Job, sink obs.SweepSink) *progress {
	p := &progress{sink: sink, t0: time.Now(), total: len(jobs)}
	for _, j := range jobs {
		p.costTotal += j.Cost
	}
	p.execTotal = p.costTotal
	return p
}

func (p *progress) emit(kind obs.SweepEventKind, job string, workers int) {
	if p.sink == nil {
		return
	}
	elapsed := time.Since(p.t0).Seconds()
	eta := -1.0
	if p.execDone > 0 && elapsed > 0 {
		rate := p.execDone / elapsed
		eta = (p.execTotal - p.execDone) / rate
	}
	p.sink.OnSweepEvent(obs.SweepEvent{
		Kind: kind, Job: job, Workers: workers,
		Done: p.doneCells, Total: p.total,
		CostDone: p.costDone, CostTotal: p.costTotal,
		ElapsedSec: elapsed, ETASec: eta,
	})
}

func (p *progress) cached(job Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneCells++
	p.costDone += job.Cost
	p.execTotal -= job.Cost
	p.emit(obs.SweepJobCached, job.ID, 0)
}

func (p *progress) start(job Job, workers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(obs.SweepJobStart, job.ID, workers)
}

func (p *progress) done(job Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneCells++
	p.costDone += job.Cost
	p.execDone += job.Cost
	p.emit(obs.SweepJobDone, job.ID, 0)
}

func (p *progress) sweepDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emit(obs.SweepDone, "", 0)
}
