// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, measures for a given number of seconds, checks
// that the program's outputs are correct, and prints one JSON result as
// the last line of its standard output:
//
//	perfbench -workload paper-sweep|graph-atomic|service-mix -seed N
//	          -seconds S -trace 0|1 [-tables PATH] [-outdir DIR]
//
// BENCHMARK.json declares graph-atomic and service-mix; paper-sweep runs
// the same way but is not declared there (README.md says why). It drives
// the program only through the public functions of its internal packages. With -trace 0 the result holds the end-to-end
// metrics; with -trace 1 the run is the traced layer pass instead, which
// covers every layer of all three workloads, records a span at each layer
// boundary from this package's own code, writes the spans to -outdir, and
// reports the per-layer metrics. perfbench/run.sh builds it and cmd/tables
// from the checkout and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/bench"
)

var workloads = map[string]func(context.Context, *run) error{
	"paper-sweep":  paperSweep,
	"graph-atomic": graphAtomic,
	"service-mix":  serviceMix,
}

// metricDef names a reported metric and its unit; BENCHMARK.json lists the
// same names (metrics_test.go keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"sweep.cell_s_max", "s"},
	{"sweep.dynamic_cells_s", "s"},
	{"sweep.static_cells_s", "s"},
	{"sweep.budget_busy_frac", "frac"},
	{"sweep.paper_lavg_err", "frac"},
	{"exec.build_ms", "ms"},
	{"exec.source_ms", "ms"},
	{"exec.build_ms_sum", "ms"},
	{"exec.validate_us_p50", "us"},
	{"exec.fingerprint_us_p50", "us"},
	{"topology.build_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.dynamic_move_frac", "frac"},
	{"sim.step_us_p50", "us"},
	{"sim.step_us_p99", "us"},
	{"sim.ns_per_move", "ns"},
	{"sim.in_flight_mean", "count"},
	{"sim.inject_fail_frac", "frac"},
	{"sim.cycles", "count"},
	{"sim.moves", "count"},
	{"sim.sat_step_us_p50", "us"},
	{"sim.sat_ns_per_move", "ns"},
	{"sim.sat_inject_fail_frac", "frac"},
	{"traffic.fill_ns_per_cycle", "ns"},
	{"traffic.injected", "count"},
	{"store.hit_ratio", "frac"},
	{"store.puts", "count"},
	{"store.evictions", "count"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"daemon.pre_exec_ms_p50", "ms"},
	{"daemon.exec_ms_p50", "ms"},
	{"daemon.post_exec_ms_p50", "ms"},
	{"daemon.executed", "count"},
	{"daemon.coalesced", "count"},
	{"daemon.rejected", "count"},
	{"obs.observer_overhead_frac", "frac"},
	{"obs.sse_cold_p50_ms", "ms"},
	{"self.sweep_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"self.exec_ms", "ms"},
	{"self.topology_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.sim_ms", "ms"},
	{"self.traffic_ms", "ms"},
	{"self.daemon_ms", "ms"},
	{"trace.sweep_overhead_frac", "frac"},
	{"trace.graph_overhead_frac", "frac"},
	{"trace.service_overhead_frac", "frac"},
	{"trace.setup_topology_core_frac", "frac"},
	{"trace.spans", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload  string
	seed      int64
	seconds   time.Duration
	nproc     int
	tablesBin string
	outDir    string
	units     map[string]string

	attempted, failed int
	metrics           map[string]metric
	label             string            // operating point of an untraced run
	labels            map[string]string // operating point of each workload, traced run
}

// set records a metric this run must report.
func (r *run) set(name string, v float64) {
	u, ok := r.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not reported by this kind of run")
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

// op counts n attempted operations (cells, windows, requests), failed
// unless ok, and explains a failure on stderr.
func (r *run) op(ok bool, n int, format string, args ...any) {
	r.attempted += n
	if !ok {
		r.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// info prints a workload's own figure by name, unit and sample count. These
// lines precede the result and are for reading, not gating.
func (r *run) info(name string, v float64, unit string, n int) {
	fmt.Printf("metric %-16s %14.6g %-5s n=%d\n", name, v, unit, n)
}

// infoPct prints a percentile, or why the run is too short to give it.
func (r *run) infoPct(name string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		fmt.Printf("metric %-16s %14s %-5s n=%d (%v)\n", name, "-", "ms", len(xs), err)
		return
	}
	r.info(name, v, "ms", len(xs))
}

// cpuTime is the CPU time the process has used, user plus system, over all
// threads. Throughput and set-up are measured in CPU time: on a shared
// host the time the hypervisor gives to other guests (steal) stretches
// wall-clock figures by up to 2x for a minute at a time, and the kernel
// leaves it out of a process's CPU time.
func cpuTime() time.Duration { return clockTime(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread; the caller pins its
// goroutine to the thread for the span it measures.
func threadCPU() time.Duration { return clockTime(clockThreadCPU) }

// The CPU-time clocks of clock_gettime (Linux), which the syscall package
// does not name. Unlike getrusage, whose per-thread figure advances only at
// scheduler ticks, they are exact to the nanosecond.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// liveHeapMB is the live heap after full collections. The second one frees
// what sync.Pool caches keep through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// saturationLabel names an operating point by the accepted share of the
// offered load: a network that accepts under 90% of it is saturated.
func saturationLabel(accepted float64) string {
	if accepted < 0.9 {
		return "saturated"
	}
	return "uncollapsed"
}

// pgoApplied reports whether the binary was built with a PGO profile.
func pgoApplied() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-pgo" && s.Value != "" {
			return true
		}
	}
	return false
}

func main() {
	workload := flag.String("workload", "", "paper-sweep | graph-atomic | service-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = traced layer pass, reporting per-layer metrics")
	tables := flag.String("tables", ".bench_build/tables", "cmd/tables binary, the paper-sweep reference")
	outDir := flag.String("outdir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload paper-sweep|graph-atomic|service-mix -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), tablesBin: *tables, outDir: *outDir,
		units: map[string]string{}, metrics: map[string]metric{}, labels: map[string]string{},
	}
	defs := endToEnd
	if *trace == 1 {
		defs, fn = perLayer, traceRun
	}
	for _, d := range defs {
		r.units[d.name] = d.unit
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := fn(context.Background(), r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	var missing []string
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 || r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s measured no operations or left metrics unset: %v\n", r.workload, missing)
		os.Exit(1)
	}

	labels := r.labels
	if *trace == 0 {
		labels = map[string]string{r.workload: r.label}
	}
	stamp, _ := json.Marshal(map[string]any{
		"workload": r.workload, "seed": r.seed, "trace": *trace == 1,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "build_id": bench.BuildID(),
		"pgo": pgoApplied(), "operating_point": labels,
	})
	fmt.Printf("record %s\n", stamp)
	r.info("failed_frac", float64(r.failed)/float64(r.attempted), "frac", r.attempted)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	fmt.Println(string(out))
}

// traceRun is the traced layer pass: every workload's layers, each with an
// untraced twin for the tracing overhead, then each layer's self time.
func traceRun(ctx context.Context, r *run) error {
	tr := newTracer()
	for _, pass := range []func(context.Context, *run, *tracer) error{paperLayers, graphLayers, serviceLayers} {
		if err := pass(ctx, r, tr); err != nil {
			return err
		}
	}
	self := selfTimes(tr.spans)
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		name := "self." + l + "_ms"
		if _, ok := r.units[name]; !ok {
			return fmt.Errorf("span layer %q has no self-time metric", l)
		}
		r.set(name, float64(self[l])/1e6)
	}
	r.set("trace.spans", float64(len(tr.spans)))
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
