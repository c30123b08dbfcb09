// Command tables regenerates the paper's Tables 1-12 (Section 7) and prints
// every row next to the published value.
//
// Usage:
//
//	tables [-table tableK] [-maxn 14] [-seed 1] [-cap 5] [-algo adaptive]
//	       [-warmup 500] [-measure 1500] [-policy first-free]
//	       [-jobs 4] [-budget 8] [-cache results.jsonl] [-progress]
//
// The sweep runs through the internal/sweep orchestrator: cells are
// scheduled longest-first onto -jobs concurrent slots sharing a -budget
// worker pool. Every cell is an exec.RunSpec, and -cache FILE opens the
// result store routesimd -cache uses: each completed cell is stored under
// its spec's fingerprint, so a killed sweep resumes where it left off,
// repeated invocations replay completed cells instead of simulating them
// again, and a cell computed here is a cache hit for routesimd (and the
// reverse). Only one process should write a given cache file at a time.
// The full sweep up to n=14 (16K nodes) costs a few core-hours of
// simulation, dominated by the dynamic (λ=1) experiments — run it with
// -jobs set to the core count; -maxn 12 finishes in a few minutes even
// sequentially and already shows every trend.
//
// Table output is written to stdout and is bit-identical for any -jobs
// value (and across a kill/resume cycle); timings and -progress status
// lines go to stderr so stdout stays clean for diffing.
//
// Exit codes: 0 success, 1 simulation error, 2 usage, 3 stopped early by
// -stop-after (the -cache file holds the completed cells).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	var (
		table      = flag.String("table", "", "run a single experiment (table1..table12 or an ext-* id); default all")
		suite      = flag.String("suite", "paper", "experiment suite: paper (Tables 1-12) | extended (mesh/torus/shuffle/CCC) | all")
		maxN       = flag.Int("maxn", 14, "largest hypercube dimension to simulate")
		seed       = flag.Int64("seed", 1, "simulation seed")
		cap_       = flag.Int("cap", 5, "central queue capacity (paper: 5)")
		algo       = flag.String("algo", "adaptive", "algorithm variant: adaptive|hung|ecube")
		warmup     = flag.Int64("warmup", 500, "dynamic runs: warmup cycles")
		measure    = flag.Int64("measure", 1500, "dynamic runs: measured cycles")
		policy     = flag.String("policy", "first-free", "selection policy: first-free|random|static-first|last-free")
		workers    = flag.Int("workers", 0, "force this many workers per simulation, capped at -budget (0 = let the scheduler decide); credited and atomic cells always run on one")
		engine     = flag.String("engine", "buffered", "simulation model: buffered (paper's node model) | atomic (Section 2)")
		jobs       = flag.Int("jobs", 1, "concurrent experiment cells")
		budget     = flag.Int("budget", 0, "total worker budget across cells (0 = GOMAXPROCS)")
		progress   = flag.Bool("progress", false, "live per-cell status with ETA on stderr")
		stopAfter  = flag.Int("stop-after", 0, "stop (exit 3) after completing this many cells; for kill/resume testing with -cache")
		benchOut   = flag.String("bench", "", "append sweep wall-clock record to this JSON file")
		benchLabel = flag.String("bench-label", "", "label for the -bench record")
		cache      = flag.String("cache", "", "JSONL result store shared with routesimd -cache: completed cells persist and replay across runs")
		rebalance  = flag.Int("rebalance", 0, "occupancy-weighted shard re-cut period in cycles (0 = off; buffered cells with workers > 1)")
		tmodel     = flag.String("traffic", "", "override the injection model of dynamic cells for ablations: mmpp[:...]|onoff[:...] (default: the paper's Bernoulli process); static cells are unaffected")
		scalingOut = flag.String("scaling", "", "scaling mode: rerun the sweep once per -scaling-jobs value and append a cells/s curve to this JSON file")
		scalingJob = flag.String("scaling-jobs", "1,2", "scaling mode: comma-separated -jobs values to sweep")
	)
	flag.Parse()

	opt := bench.Options{
		Seed:           *seed,
		QueueCap:       *cap_,
		Warmup:         *warmup,
		Measure:        *measure,
		Algorithm:      *algo,
		Engine:         *engine,
		RebalanceEvery: *rebalance,
		Traffic:        *tmodel,
	}
	p, err := sim.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}
	opt.Policy = p
	if *engine == "atomic" && *workers > 1 {
		// The RunSpec path rejects this combination rather than silently
		// ignoring Workers; surface the same rule at the flag layer.
		fmt.Fprintln(os.Stderr, "tables: -workers > 1 with -engine atomic: the atomic engine is inherently sequential; drop -workers or use -engine buffered")
		os.Exit(2)
	}

	jobList, err := sweep.BuildJobs(*suite, *table, *maxN, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *budget == 0 {
		*budget = runtime.GOMAXPROCS(0)
	}
	so := sweep.Options{
		Jobs:         *jobs,
		Budget:       *budget,
		FixedWorkers: *workers,
		StopAfter:    *stopAfter,
	}
	if *cache != "" {
		st, err := store.Open(*cache, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		so.Store = st
	}
	if *progress {
		so.Sink = obs.NewSweepProgress(os.Stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *scalingOut != "" {
		os.Exit(runScalingSweep(ctx, jobList, opt, so, *scalingOut, *scalingJob,
			*benchLabel, *suite, *maxN, *engine, *rebalance))
	}

	start := time.Now()
	results, err := sweep.Run(ctx, jobList, opt, so)
	wall := time.Since(start)
	switch {
	case errors.Is(err, sweep.ErrStopped):
		fmt.Fprintf(os.Stderr, "tables: stopped after %d cells; rerun with -cache %s to continue\n",
			*stopAfter, *cache)
		os.Exit(3)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "tables: interrupted; rerun with the same -cache to continue")
		os.Exit(1)
	case err != nil:
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}

	printResults(results)
	fmt.Fprintf(os.Stderr, "tables: %d cells in %s\n", len(results), wall.Round(time.Millisecond))

	if *benchOut != "" {
		cached := 0
		for _, r := range results {
			if r.Cached {
				cached++
			}
		}
		rec := bench.SweepBenchRun{
			Label: *benchLabel, Date: time.Now().UTC().Format("2006-01-02"),
			Suite: *suite, Table: *table, MaxN: *maxN,
			Jobs: so.Jobs, Budget: so.Budget, GOMAXPROCS: runtime.GOMAXPROCS(0),
			Engine: *engine, Cells: len(results), Cached: cached,
			WallSec: wall.Seconds(), BuildID: bench.BuildID(),
		}
		if err := bench.AppendSweepBench(*benchOut, rec); err != nil {
			fmt.Fprintf(os.Stderr, "tables: bench record: %v\n", err)
			os.Exit(1)
		}
	}
}

// runScalingSweep is the sweep-level scaling protocol: the same job list is
// executed once per -scaling-jobs value and the resulting cells/s curve is
// appended to the scaling artifact (kind "sweep"). Table output is
// suppressed — the mode measures orchestration throughput, and the rows are
// bit-identical across jobs counts anyway (CI diffs them separately).
func runScalingSweep(ctx context.Context, jobList []sweep.Job, opt bench.Options,
	so sweep.Options, out, jobsCSV, label, suite string, maxN int, engine string, rebalance int) int {
	if label == "" {
		label = "dev"
	}
	run := bench.ScalingRun{
		Label: label, Kind: "sweep", Engine: engine,
		Suite: suite, MaxN: maxN, RebalanceEvery: rebalance,
		Seed: opt.Seed,
	}
	run.HostStamp()
	for _, j := range parseJobsList(jobsCSV) {
		sj := so
		sj.Jobs = j
		// Each point re-runs the full sweep; a shared store would turn
		// every point after the first into cache hits and time nothing.
		sj.Store = nil
		start := time.Now()
		results, err := sweep.Run(ctx, jobList, opt, sj)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: scaling jobs=%d: %v\n", j, err)
			return 1
		}
		run.Points = append(run.Points, bench.ScalingPoint{
			Workers:     j,
			Cells:       len(results),
			ElapsedSec:  wall.Seconds(),
			CellsPerSec: float64(len(results)) / wall.Seconds(),
		})
		fmt.Fprintf(os.Stderr, "tables: scaling jobs=%d: %d cells in %s\n",
			j, len(results), wall.Round(time.Millisecond))
	}
	bench.FinishCurve(run.Points)
	if err := bench.AppendScaling(out, run); err != nil {
		fmt.Fprintf(os.Stderr, "tables: scaling record: %v\n", err)
		return 1
	}
	fmt.Print(bench.FormatScaling(run))
	fmt.Printf("appended scaling run %q to %s\n", label, out)
	return 0
}

// parseJobsList parses the -scaling-jobs list, exiting on malformed input.
func parseJobsList(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "tables: bad -scaling-jobs entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "tables: -scaling-jobs lists no jobs values")
		os.Exit(2)
	}
	return out
}

// printResults renders the merged results in canonical order: one Format
// block per experiment, rows grouped exactly as the sequential loop printed
// them. Results arrive indexed by Seq, so the grouping is a single pass.
func printResults(results []sweep.Result) {
	for i := 0; i < len(results); {
		j := i
		for j < len(results) && results[j].Job.Exp == results[i].Job.Exp {
			j++
		}
		rows := make([]bench.Row, 0, j-i)
		for _, r := range results[i:j] {
			rows = append(rows, r.Row)
		}
		switch results[i].Job.Suite {
		case sweep.SuitePaper:
			ex, err := bench.FindTable(results[i].Job.Exp)
			if err == nil {
				fmt.Print(ex.Format(rows))
			}
		case sweep.SuiteExtended:
			ex, err := bench.FindExtended(results[i].Job.Exp)
			if err == nil {
				fmt.Print(ex.Format(rows))
			}
		}
		fmt.Println()
		i = j
	}
}
