package sim

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Plan describes the schedule of a run: either drain a finite (static)
// workload to completion, or simulate a fixed warmup+measure window of
// dynamic injection. Build one with StaticPlan or DynamicPlan.
type Plan struct {
	// Drain, when true, runs until the traffic source is exhausted and the
	// network is empty (the paper's static injection model).
	Drain bool
	// Warmup and Measure bound the dynamic model's measurement window:
	// the run simulates Warmup+Measure cycles and the latency / injection-
	// rate statistics cover only the measured part.
	Warmup, Measure int64
	// MaxCycles aborts the run with an error after this many cycles
	// (0 = no bound; ignored for dynamic plans, which are bounded by
	// Warmup+Measure).
	MaxCycles int64
}

// StaticPlan returns a drain-to-completion plan with the given cycle budget
// (0 = unbounded).
func StaticPlan(maxCycles int64) Plan {
	return Plan{Drain: true, MaxCycles: maxCycles}
}

// DynamicPlan returns a fixed-window dynamic plan.
func DynamicPlan(warmup, measure int64) Plan {
	return Plan{Warmup: warmup, Measure: measure}
}

// RunResult is what a run hands back: the aggregate Metrics, and — when the
// metrics core was enabled (an Observer attached or Config.Metrics set) —
// the final metric snapshot.
type RunResult struct {
	// Metrics aggregates the paper's observables over the run.
	Metrics Metrics
	// Snapshot is the final merged metric snapshot; the zero value unless
	// Observed.
	Snapshot obs.Snapshot
	// Observed reports whether the metrics core was enabled for the run.
	Observed bool
	// Canceled reports that the run was stopped by context cancellation or
	// deadline; Metrics and Snapshot then cover the completed cycles.
	Canceled bool
}

// runWindow holds the measurement bounds of a run.
type runWindow struct {
	start int64 // first cycle whose deliveries/attempts are measured
	end   int64 // exclusive; <0 means measure to the end of the run
}

func (w runWindow) contains(cycle int64) bool {
	return cycle >= w.start && (w.end < 0 || cycle < w.end)
}

// injSlot is the per-node injection queue (size 1).
type injSlot struct {
	pkt  core.Packet
	full bool
}

// cycleStats accumulates per-worker observations that are folded into
// Metrics once per cycle.
type cycleStats struct {
	moves        int64
	dynamicMoves int64
	injected     int64
	delivered    int64
	dropped      int64
	attempts     int64
	successes    int64
	latencySum   int64
	latencyMax   int64
	measured     int64
	maxQueue     int
	_            [40]byte // pad: keeps the counters and the shard on separate lines

	// obs is the worker's metric shard, folded into the driver's obs.Core
	// at the same barrier that merges the fields above. It stays zero (and
	// unread) unless the metrics core is enabled.
	obs obs.Shard

	// Tail pad: stats live one-per-worker in a contiguous slice, and a
	// trailing cache line guarantees no two workers' per-cycle increments
	// ever share a line regardless of the struct's total size.
	_ [64]byte
}

// nodeModel is the part of a run an engine supplies: its node cycle and the
// hooks that touch engine-only state. The driver calls each once per cycle
// or per event, never per node or per packet.
type nodeModel interface {
	// resetNodes clears the engine-only state for a new run.
	resetNodes()
	// cycle simulates one cycle of the node model, injection included
	// (through driver.inject), leaving its observations in driver.stats.
	// Under PhaseProf it marks the end of each phase with driver.lap.
	cycle()
	// purge drops the engine-only packets held by a failed node (port < 0)
	// or committed to a failed link (node, port); the driver then empties
	// the node's central queues and injection queue itself.
	purge(node int32, port int, st *cycleStats)
	// release drops per-run references (the worker pool's phase closure)
	// when a run ends or panics.
	release()
}

// Phases of a cycle as charged by the PhaseProf clock, in the order of the
// PhaseTimes fields and the obs phase-time counters.
const (
	lapInject = iota
	lapA
	lapB
	lapLink
	lapMerge
	lapOther
	numLaps
)

// runState is the control state of a stepwise run, kept between Step calls.
// The engines' phase loops read src, batch, win and now.
type runState struct {
	src TrafficSource
	// batch is src as a BatchSource when its FillCycle feeds injection; nil
	// selects the per-node fill step (see driver.inject).
	batch     BatchSource
	win       runWindow
	now       int64 // the cycle being simulated
	stopAt    int64
	maxCycles int64
	drain     bool
	idle      int
	m         Metrics

	// PhaseProf clock: lap charges the time since lapAt to one phase;
	// cycleEnd anchors the OtherNs remainder between cycles.
	pt              PhaseTimes
	lapNs           [numLaps]int64
	lapAt, cycleEnd time.Time

	active bool // Start was called
	done   bool // the run finished; res/err hold the outcome
	res    RunResult
	err    error
}

// driver is the run machinery both engines share; each embeds one and plugs
// in its node cycle as the nodeModel. It owns the run-control API (Start,
// Step, Run, ...), the per-cycle stats merge and obs fold, the end-of-cycle
// gauges and observer probe, the drain check and deadlock watchdog, fault
// event replay, delivery with the livelock-freedom asserts, and injection.
// The central-queue slab and the injection queues live here too, since
// injection, fault purges and the deadlock dump all touch them; how packets
// move between queues is the engine's business.
type driver struct {
	cfg      Config
	algo     core.Algorithm
	topo     topology.Topology
	nodes    int
	classes  int
	queueCap int
	// minimal caches Props().Minimal so the per-delivery hop assertion does
	// not pay an interface call.
	minimal bool
	// model is the embedding engine. The self-reference is why a buffered
	// engine's pool is reaped through a separate handle (see reaper).
	model nodeModel

	// Central queues: fixed-capacity FIFO rings over one packet slab.
	// Queue qi = node*classes+class occupies qbuf[qi*queueCap:(qi+1)*queueCap]
	// with head qhead[qi] and length qlen[qi].
	qbuf  []core.Packet
	qhead []int32
	qlen  []int32

	injQ []injSlot // per-node injection queue (size 1)
	// injFull mirrors injQ[u].full as a bitmap (bit u of word u/64):
	// BatchSource.FillCycle fails blocked attempts against it, and the
	// per-node fill step reads it the same way. Set at injection commit,
	// cleared when the engine drains the slot. Worker shards are 64-aligned,
	// so every word has exactly one writer between barriers.
	injFull []uint64
	// injBits marks nodes whose traffic source is not yet exhausted; the
	// per-node fill step and the drain check iterate its set bits only.
	injBits []uint64
	// injBuf holds one fill buffer per worker, sized to the node count so
	// any shard fits after a rebalance.
	injBuf [][]core.PendingInject
	nextID []int64 // per-node packet id counters (determinism)
	rngs   []xrand.RNG

	// flt is the fault-injection machinery; nil when Config.Faults is unset,
	// so the no-fault hot path pays one pointer test per guarded site.
	flt *faultState

	// obsOn gates every metric instrumentation site in the hot loop.
	obsOn    bool
	obsCore  *obs.Core
	observer obs.Observer

	stats []cycleStats // one per worker
	rs    runState
}

// init validates cfg and builds the shared state for an engine running
// cfg.Workers shards. The engine sets model once it is constructed.
func (d *driver) init(cfg Config) error {
	if err := cfg.fill(); err != nil {
		return err
	}
	a := cfg.Algorithm
	t := a.Topology()
	*d = driver{
		cfg:      cfg,
		algo:     a,
		topo:     t,
		nodes:    t.Nodes(),
		classes:  a.NumClasses(),
		queueCap: cfg.QueueCap,
		minimal:  a.Props().Minimal,
	}
	workers := d.cfg.Workers
	nQueues := d.nodes * d.classes
	d.qbuf = make([]core.Packet, nQueues*d.queueCap)
	d.qhead = make([]int32, nQueues)
	d.qlen = make([]int32, nQueues)
	nWords := (d.nodes + 63) / 64
	d.injQ = make([]injSlot, d.nodes)
	d.injFull = make([]uint64, nWords)
	d.injBits = make([]uint64, nWords)
	d.injBuf = make([][]core.PendingInject, workers)
	for w := range d.injBuf {
		d.injBuf[w] = make([]core.PendingInject, d.nodes)
	}
	d.nextID = make([]int64, d.nodes)
	d.rngs = make([]xrand.RNG, d.nodes)
	if !cfg.Faults.Empty() {
		if t.Ports() > 32 {
			return fmt.Errorf("sim: fault injection supports at most 32 ports per node, %s has %d", t.Name(), t.Ports())
		}
		sched, err := cfg.Faults.Compile(t)
		if err != nil {
			return err
		}
		d.flt = newFaultState(t, sched, cfg.HopBudget)
	}
	d.observer = cfg.Observer
	d.obsOn = cfg.Observer != nil || cfg.Metrics
	if d.obsOn {
		d.obsCore = obs.NewCore()
	}
	d.stats = make([]cycleStats, workers)
	return nil
}

// reset clears the shared state for a new run.
func (d *driver) reset() {
	for i := range d.qlen {
		d.qlen[i] = 0
		d.qhead[i] = 0
	}
	for u := range d.injQ {
		d.injQ[u] = injSlot{}
		d.rngs[u] = xrand.New(d.cfg.Seed, int32(u))
		d.nextID[u] = int64(u) << 36
	}
	for i := range d.injBits {
		d.injFull[i] = 0
		d.injBits[i] = ^uint64(0)
	}
	if tail := uint(d.nodes % 64); tail != 0 {
		d.injBits[len(d.injBits)-1] = (uint64(1) << tail) - 1
	}
	if d.flt != nil {
		d.flt.reset()
	}
	if d.obsOn {
		d.obsCore.Reset()
	}
}

// Algorithm returns the routing algorithm the engine simulates.
func (d *driver) Algorithm() core.Algorithm { return d.algo }

// Obs returns the engine's metrics core, or nil when observability is off
// (no Observer attached and Config.Metrics unset). The core's Latest and
// Handler are safe to use concurrently with a run — the hook behind
// routesim's /metrics endpoint.
func (d *driver) Obs() *obs.Core { return d.obsCore }

// PhaseTimes returns the accumulated per-phase breakdown of the current (or
// finished) run; all zero unless Config.PhaseProf was set.
func (d *driver) PhaseTimes() PhaseTimes { return d.rs.pt }

// Result returns the outcome of the run once Step reported done (or Run
// returned); before that it returns the zero RunResult and a nil error.
func (d *driver) Result() (RunResult, error) { return d.rs.res, d.rs.err }

// Metrics returns the aggregate metrics of the current (possibly still
// running) stepwise run.
func (d *driver) Metrics() Metrics { return d.rs.m }

// RunStatic injects the (finite) traffic of src and simulates until every
// packet has been delivered or dropped, returning the full-run metrics. It
// returns *ErrDeadlock if the watchdog fires and an error if maxCycles
// (0 = none) is exceeded. It is Run with a background context and
// StaticPlan; use Run for cancellation and the full RunResult.
func (d *driver) RunStatic(src TrafficSource, maxCycles int64) (Metrics, error) {
	res, err := d.Run(context.Background(), src, StaticPlan(maxCycles))
	return res.Metrics, err
}

// RunDynamic simulates warmup+measure cycles of dynamic injection,
// measuring latency and the effective injection rate over deliveries and
// attempts that fall in the measurement window. It is Run with a
// background context and DynamicPlan.
func (d *driver) RunDynamic(src TrafficSource, warmup, measure int64) (Metrics, error) {
	res, err := d.Run(context.Background(), src, DynamicPlan(warmup, measure))
	return res.Metrics, err
}

// Run simulates according to plan, stopping early — within one cycle — if
// ctx is canceled or its deadline passes. On cancellation it returns the
// partial RunResult together with ctx.Err(). A nil ctx means never cancel.
func (d *driver) Run(ctx context.Context, src TrafficSource, plan Plan) (RunResult, error) {
	d.Start(src, plan)
	defer func() {
		// A panic mid-cycle (e.g. a violated hop bound) skips end: the pool
		// must still drop its phase closure and the source must not leak
		// into the next run.
		if !d.rs.done {
			d.release()
		}
	}()
	for {
		if canceled(ctx) {
			d.end(true, ctx.Err())
			break
		}
		if done, _ := d.Step(); done {
			break
		}
	}
	return d.rs.res, d.rs.err
}

// Start begins a stepwise run: the engine is reset and each subsequent Step
// call simulates exactly one cycle. Run is Start plus a Step loop; use
// Start/Step directly to interleave simulation with other work or inspect
// engine state between cycles (Snapshot, Metrics).
func (d *driver) Start(src TrafficSource, plan Plan) {
	d.reset()
	d.model.resetNodes()
	d.rs = runState{src: src, active: true}
	rs := &d.rs
	if plan.Drain {
		rs.win, rs.maxCycles, rs.drain = runWindow{0, -1}, plan.MaxCycles, true
	} else {
		end := plan.Warmup + plan.Measure
		rs.win, rs.stopAt, rs.maxCycles = runWindow{plan.Warmup, end}, end, end
	}
	if d.flt == nil {
		// Fault gating and backoff work per node, so faulted runs always
		// take the per-node fill step.
		rs.batch, _ = src.(BatchSource)
	}
}

// Step simulates one cycle of the started plan and reports whether the run
// finished (normally or with an error); Result then returns the outcome.
// Calling Step again after done is a no-op returning the same outcome.
func (d *driver) Step() (done bool, err error) {
	rs := &d.rs
	if !rs.active {
		panic("sim: Step called before Start")
	}
	if rs.done {
		return true, rs.err
	}
	m := &rs.m
	cycle := m.Cycles
	if rs.stopAt > 0 && cycle >= rs.stopAt {
		d.end(false, nil)
		return true, nil
	}
	if rs.maxCycles > 0 && cycle > rs.maxCycles {
		d.end(false, fmt.Errorf("sim: %s exceeded %d cycles with %d packets in flight",
			d.algo.Name(), rs.maxCycles, m.InFlight))
		return true, rs.err
	}

	prevMoves := m.Moves
	rs.now = cycle
	if d.flt != nil {
		// Fault events apply sequentially at the cycle boundary, before the
		// node cycle observes the liveness masks.
		d.applyFaults(cycle)
	}
	prof := d.cfg.PhaseProf
	if prof {
		now := time.Now()
		rs.lapNs = [numLaps]int64{}
		if !rs.cycleEnd.IsZero() {
			rs.lapNs[lapOther] = now.Sub(rs.cycleEnd).Nanoseconds()
		}
		rs.lapAt = now
	}
	d.model.cycle()
	d.mergeCycle()
	if prof {
		d.lap(lapMerge)
		ns := &rs.lapNs
		rs.pt.add(ns[lapInject], ns[lapA], ns[lapB], ns[lapLink], ns[lapMerge], ns[lapOther])
		rs.cycleEnd = rs.lapAt
		if d.obsOn {
			for i, v := range ns {
				d.obsCore.AddCounter(obs.CPhaseInjectNs+obs.CounterID(i), v)
			}
		}
	}
	m.Cycles = cycle + 1
	m.InFlight = m.Injected - m.Delivered - m.Dropped
	if d.obsOn {
		c := d.obsCore
		c.SetGauge(obs.GInFlight, m.InFlight)
		c.SetGauge(obs.GMaxQueue, int64(m.MaxQueue))
		if d.flt != nil {
			c.SetGauge(obs.GDeadLinks, int64(d.flt.live.DeadLinks()))
			c.SetGauge(obs.GDeadNodes, int64(d.flt.live.DeadNodes()))
		}
		snap := c.EndCycle(m.Cycles)
		if d.observer != nil {
			d.observer.OnCycle(cycle, snap)
		}
	}

	if rs.drain && m.InFlight == 0 && d.allExhausted() {
		d.end(false, nil)
		return true, nil
	}
	if m.Moves == prevMoves && m.InFlight > 0 {
		rs.idle++
		if rs.idle >= d.cfg.DeadlockWindow {
			derr := &ErrDeadlock{Cycle: cycle, InFlight: int(m.InFlight), Algorithm: d.algo.Name()}
			derr.Dump = d.deadlockDump(cycle, m.InFlight)
			if o, ok := d.observer.(obs.DeadlockObserver); ok {
				o.OnDeadlock(derr.Dump)
			}
			d.end(false, derr)
			return true, rs.err
		}
	} else {
		rs.idle = 0
	}
	return false, nil
}

// lap charges the wall time since the previous lap to phase ph. Engines call
// it at their phase boundaries; it is a no-op unless Config.PhaseProf.
func (d *driver) lap(ph int) {
	if !d.cfg.PhaseProf {
		return
	}
	now := time.Now()
	d.rs.lapNs[ph] += now.Sub(d.rs.lapAt).Nanoseconds()
	d.rs.lapAt = now
}

// end records the run's outcome (firing OnDone exactly once) and releases
// the per-run state.
func (d *driver) end(wasCanceled bool, err error) {
	rs := &d.rs
	rs.res = RunResult{Metrics: rs.m, Canceled: wasCanceled}
	if d.obsOn {
		snap := d.obsCore.EndCycle(rs.m.Cycles)
		rs.res.Snapshot = *snap
		rs.res.Observed = true
		if d.observer != nil {
			d.observer.OnDone(snap)
		}
	}
	rs.err = err
	rs.done = true
	d.release()
}

// release drops the run's references to the traffic source and lets the
// engine drop its own, so a finished engine retains nothing of the run.
func (d *driver) release() {
	d.rs.src, d.rs.batch = nil, nil
	d.model.release()
}

// mergeCycle folds the per-worker cycle stats into the run metrics, once
// per cycle. With the metrics core enabled it also mirrors the fields the
// metrics share with Metrics into each worker's obs shard (so the hot loop
// never double-counts them) and folds the shards — in worker order, so the
// merged snapshot is bit-deterministic.
func (d *driver) mergeCycle() {
	m := &d.rs.m
	for i := range d.stats {
		st := &d.stats[i]
		m.Moves += st.moves
		m.DynamicMoves += st.dynamicMoves
		m.Injected += st.injected
		m.Delivered += st.delivered
		m.Dropped += st.dropped
		m.Attempts += st.attempts
		m.Successes += st.successes
		m.LatencySum += st.latencySum
		m.Measured += st.measured
		if st.latencyMax > m.LatencyMax {
			m.LatencyMax = st.latencyMax
		}
		if st.maxQueue > m.MaxQueue {
			m.MaxQueue = st.maxQueue
		}
		if d.obsOn {
			sh := &st.obs
			sh.Add(obs.CInjected, st.injected)
			sh.Add(obs.CDelivered, st.delivered)
			sh.Add(obs.CMoves, st.moves)
			sh.Add(obs.CDynamicMoves, st.dynamicMoves)
			d.obsCore.Fold(sh)
		}
		*st = cycleStats{}
	}
}

// allExhausted reports whether no node will ever inject again. It probes
// the still-active sources in ascending node order, retiring nodes whose
// source has drained; it iterates only the worklist of active sources, not
// all N nodes. A node that is dead with no revival left in the fault
// schedule counts as exhausted too: it never consults its source again.
func (d *driver) allExhausted() bool {
	src := d.rs.src
	for wi := range d.injBits {
		for word := d.injBits[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			u := int32(wi*64 + b)
			if !src.Exhausted(u) && (d.flt == nil || !d.flt.deadForGood(u)) {
				return false
			}
			d.injBits[wi] &^= 1 << uint(b)
		}
	}
	return true
}

// deliver consumes a packet at its destination and updates statistics,
// asserting the livelock-freedom hop bound (and exact minimality for
// minimal algorithms).
func (d *driver) deliver(pkt *core.Packet, cycle int64, st *cycleStats) {
	// Misrouted packets left the minimal path to dodge a fault; their hop
	// bound is the misroute budget, enforced at misroute time instead.
	if !d.cfg.DisableInvariantChecks && !pkt.Misrouted() {
		bound := d.algo.MaxHops(pkt.Src, pkt.Dst)
		if pkt.HopCount() > bound {
			panic(fmt.Sprintf("sim: %s: packet %d took %d hops from %d to %d, bound %d",
				d.algo.Name(), pkt.ID, pkt.HopCount(), pkt.Src, pkt.Dst, bound))
		}
		if d.minimal && pkt.HopCount() != bound {
			panic(fmt.Sprintf("sim: %s: minimal algorithm delivered packet %d in %d hops, distance %d",
				d.algo.Name(), pkt.ID, pkt.HopCount(), bound))
		}
	}
	st.delivered++
	st.moves++
	lat := cycle - pkt.InjectedAt + 1
	if d.observer != nil {
		d.observer.OnDeliver(*pkt, lat)
	}
	if d.obsOn {
		st.obs.Observe(obs.HLatency, lat)
	}
	if d.rs.win.contains(cycle) {
		st.latencySum += lat
		st.measured++
		if lat > st.latencyMax {
			st.latencyMax = lat
		}
	}
}

// drop accounts one packet lost to faults. Removing the packet from
// whatever structure held it is the caller's job.
func (d *driver) drop(pkt *core.Packet, cycle int64, st *cycleStats) {
	st.dropped++
	if d.obsOn {
		st.obs.Inc(obs.CFaultDrops)
		st.obs.Observe(obs.HDropAge, cycle-pkt.InjectedAt+1)
	}
}

// qAt returns the i-th packet (FIFO order) of queue qi, in place.
func (d *driver) qAt(qi int, i int32) *core.Packet {
	pos := d.qhead[qi] + i
	if pos >= int32(d.queueCap) {
		pos -= int32(d.queueCap)
	}
	return &d.qbuf[qi*d.queueCap+int(pos)]
}

func (d *driver) queueIndex(node int32, class core.QueueClass) int {
	return int(node)*d.classes + int(class)
}

// Snapshot invokes f for every central queue with its current occupancy.
// It must not be called while a Run* is in progress (the engines are not
// reentrant); its intended use is from an Observer's OnCycle probe or after
// a run, to study where congestion accumulates — e.g. the paper's
// observation that without dynamic links traffic concentrates around node
// 1...1.
func (d *driver) Snapshot(f func(QueueSnapshot)) {
	for u := 0; u < d.nodes; u++ {
		for c := 0; c < d.classes; c++ {
			f(QueueSnapshot{
				Node: int32(u), Class: core.QueueClass(c),
				Len: int(d.qlen[u*d.classes+c]), Cap: d.queueCap,
			})
		}
	}
}

// InNetwork counts the packets in the central and injection queues; the
// buffered engine adds its link buffers. At any phase boundary Injected ==
// Delivered + Dropped + InNetwork holds exactly; the conservation tests
// assert it every cycle.
func (d *driver) InNetwork() int {
	total := 0
	for _, l := range d.qlen {
		total += int(l)
	}
	for i := range d.injQ {
		if d.injQ[i].full {
			total++
		}
	}
	return total
}

// canceled reports whether ctx is done (nil ctx never is).
func canceled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
