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

// AtomicEngine is the abstract store-and-forward model of Section 2: the
// greedy Route(q) procedure applied directly to the central queues, with no
// link buffers. Each cycle every queue may advance its head packet into one
// admissible target queue (checked and applied atomically, so MinFree-based
// bubble conditions are exact by construction), every node may accept one
// injected packet, and deliveries are immediate.
//
// It is the reference semantics for deadlock-freedom studies and for quick
// algorithm comparisons; the buffered Engine is the one that reproduces the
// paper's latency tables.
type AtomicEngine struct {
	cfg     Config
	algo    core.Algorithm
	topo    topology.Topology
	nodes   int
	classes int
	obsState

	// Central queues live in one flat slab, mirroring the buffered
	// engine's layout: queue qi = node*classes+class occupies
	// qbuf[qi*queueCap : (qi+1)*queueCap] as a ring with head qhead[qi]
	// and length qlen[qi]. One slab instead of nodes*classes separate
	// FIFO allocations keeps the per-cycle sweep over every queue on
	// sequential memory.
	qbuf     []core.Packet
	qhead    []int32
	qlen     []int32
	queueCap int

	// Port-mask fast path (see nodePhaseA in engine.go for the buffered
	// counterpart): with a PortMaskRouter algorithm and the FirstFree
	// policy, mask-eligible head packets route through an inline bitmask
	// scan over the neighbor table instead of materializing Moves. nbr is
	// the same node*ports+port layout the buffered engine uses.
	ports  int
	nbr    []int32
	pmr    core.PortMaskRouter
	maskFF bool

	injQ   []injSlot
	rngs   []xrand.RNG
	nextID []int64
	// injFull mirrors injQ[u].full as a bitmap for the batched injection
	// path (see BatchSource); maintained unconditionally, like the buffered
	// engine's. curBatch is non-nil while the current run is batched;
	// batchBuf is its reusable PendingInject buffer.
	injFull  []uint64
	curBatch BatchSource
	batchBuf []core.PendingInject
	// actBits marks nodes whose traffic source may still inject (bit u of
	// word u/64), replacing a []bool sweep over all nodes: the injection
	// loop iterates set bits only, so drained sources cost nothing.
	actBits []uint64
	headID  []int64 // per-queue head snapshot: one move per packet per cycle

	// flt is the fault-injection machinery; nil without Config.Faults.
	flt *faultState

	rs atomicRunState
}

// atomicRunState is the control state of the atomic engine's stepwise run;
// see runState for the buffered engine's equivalent.
type atomicRunState struct {
	src       TrafficSource
	win       runWindow
	stopAt    int64
	maxCycles int64
	drain     bool
	idle      int
	m         Metrics
	st        cycleStats
	cand      [64]core.Move
	adm       [64]int
	pm        core.PortMasks
	chooser   Engine // borrows (*Engine).choose for policy selection
	// pt accumulates the per-section wall-clock breakdown under PhaseProf
	// (the atomic model's sections map onto the phase names: injection draws
	// -> Inject, injection-queue drain -> PhaseB, Route(q) sweep -> PhaseA);
	// lastCycleEnd anchors OtherNs.
	pt           PhaseTimes
	lastCycleEnd time.Time

	active bool
	done   bool
	res    RunResult
	err    error
}

// NewAtomicEngine builds an atomic engine for the configuration. Workers is
// ignored: atomic semantics are inherently sequential.
func NewAtomicEngine(cfg Config) (*AtomicEngine, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	a := cfg.Algorithm
	t := a.Topology()
	e := &AtomicEngine{
		cfg:     cfg,
		algo:    a,
		topo:    t,
		nodes:   t.Nodes(),
		classes: a.NumClasses(),
	}
	nQueues := e.nodes * e.classes
	e.queueCap = cfg.QueueCap
	e.qbuf = make([]core.Packet, nQueues*e.queueCap)
	e.qhead = make([]int32, nQueues)
	e.qlen = make([]int32, nQueues)
	e.injQ = make([]injSlot, e.nodes)
	e.rngs = make([]xrand.RNG, e.nodes)
	e.nextID = make([]int64, e.nodes)
	e.actBits = make([]uint64, (e.nodes+63)/64)
	e.injFull = make([]uint64, (e.nodes+63)/64)
	e.headID = make([]int64, nQueues)
	e.ports = t.Ports()
	if !cfg.DisablePortMask {
		e.pmr, _ = a.(core.PortMaskRouter)
	}
	if e.pmr != nil && e.ports <= 32 {
		e.nbr = make([]int32, e.nodes*e.ports)
		for u := 0; u < e.nodes; u++ {
			for p := 0; p < e.ports; p++ {
				v := t.Neighbor(u, p)
				if v == topology.None || v == u {
					e.nbr[u*e.ports+p] = -1
				} else {
					e.nbr[u*e.ports+p] = int32(v)
				}
			}
		}
	}
	e.maskFF = e.pmr != nil && e.nbr != nil && cfg.Policy == PolicyFirstFree
	if !cfg.Faults.Empty() {
		if t.Ports() > 32 {
			return nil, fmt.Errorf("sim: fault injection supports at most 32 ports per node, %s has %d", t.Name(), t.Ports())
		}
		sched, err := cfg.Faults.Compile(t)
		if err != nil {
			return nil, err
		}
		e.flt = newFaultState(t, sched, cfg.HopBudget)
	}
	e.initObs(&cfg)
	e.reset()
	return e, nil
}

func (e *AtomicEngine) reset() {
	for i := range e.qlen {
		e.qlen[i] = 0
		e.qhead[i] = 0
	}
	for u := 0; u < e.nodes; u++ {
		e.injQ[u] = injSlot{}
		e.rngs[u] = xrand.New(e.cfg.Seed, int32(u))
		e.nextID[u] = int64(u) << 36
	}
	for i := range e.actBits {
		e.actBits[i] = ^uint64(0)
	}
	for i := range e.injFull {
		e.injFull[i] = 0
	}
	if tail := uint(e.nodes) & 63; tail != 0 {
		e.actBits[len(e.actBits)-1] = (uint64(1) << tail) - 1
	}
	if e.flt != nil {
		e.flt.reset()
	}
	if e.obsOn {
		e.obsCore.Reset()
	}
}

func (e *AtomicEngine) queueIndex(node int32, class core.QueueClass) int {
	return int(node)*e.classes + int(class)
}

// qAt returns the i-th packet (FIFO order) of queue qi, in place.
func (e *AtomicEngine) qAt(qi int, i int32) *core.Packet {
	pos := e.qhead[qi] + i
	if pos >= int32(e.queueCap) {
		pos -= int32(e.queueCap)
	}
	return &e.qbuf[qi*e.queueCap+int(pos)]
}

// qPush appends the packet to queue qi and returns the new length.
func (e *AtomicEngine) qPush(qi int, pkt *core.Packet) int {
	n := e.qlen[qi]
	if int(n) == e.queueCap {
		panic("sim: push into a full queue (admissibility bug)")
	}
	pos := e.qhead[qi] + n
	if pos >= int32(e.queueCap) {
		pos -= int32(e.queueCap)
	}
	e.qbuf[qi*e.queueCap+int(pos)] = *pkt
	e.qlen[qi] = n + 1
	return int(n + 1)
}

// qPop removes and returns the head packet of queue qi.
func (e *AtomicEngine) qPop(qi int) core.Packet {
	pkt := *e.qAt(qi, 0)
	head := e.qhead[qi] + 1
	if head >= int32(e.queueCap) {
		head -= int32(e.queueCap)
	}
	e.qhead[qi] = head
	e.qlen[qi]--
	return pkt
}

// qFree returns the free capacity of queue qi.
func (e *AtomicEngine) qFree(qi int) int {
	return e.queueCap - int(e.qlen[qi])
}

// RunStatic simulates until the finite traffic of src has drained.
func (e *AtomicEngine) RunStatic(src TrafficSource, maxCycles int64) (Metrics, error) {
	res, err := e.run(context.Background(), src, runWindow{0, -1}, 0, maxCycles, true)
	return res.Metrics, err
}

// RunDynamic simulates warmup+measure cycles of dynamic injection.
func (e *AtomicEngine) RunDynamic(src TrafficSource, warmup, measure int64) (Metrics, error) {
	res, err := e.run(context.Background(), src, runWindow{warmup, warmup + measure}, warmup+measure, warmup+measure, false)
	return res.Metrics, err
}

// Start begins a stepwise run; see (*Engine).Start.
func (e *AtomicEngine) Start(src TrafficSource, plan Plan) {
	win, stopAt, maxCycles, drain := plan.params()
	e.start(src, win, stopAt, maxCycles, drain)
}

func (e *AtomicEngine) start(src TrafficSource, win runWindow, stopAt, maxCycles int64, drain bool) {
	e.reset()
	e.curBatch = batchFor(src, &e.cfg, e.flt != nil)
	if e.curBatch != nil && e.batchBuf == nil {
		e.batchBuf = make([]core.PendingInject, e.nodes)
	}
	e.rs = atomicRunState{
		src: src, win: win, stopAt: stopAt, maxCycles: maxCycles, drain: drain,
		active:  true,
		chooser: Engine{cfg: e.cfg},
	}
}

func (e *AtomicEngine) end(wasCanceled bool, err error) {
	rs := &e.rs
	rs.res = e.finish(rs.m, wasCanceled)
	rs.err = err
	rs.done = true
	rs.src = nil
	e.curBatch = nil
}

// Result returns the outcome of the run once Step reported done; see
// (*Engine).Result.
func (e *AtomicEngine) Result() (RunResult, error) { return e.rs.res, e.rs.err }

// Metrics returns the aggregate metrics of the current stepwise run.
func (e *AtomicEngine) Metrics() Metrics { return e.rs.m }

func (e *AtomicEngine) run(ctx context.Context, src TrafficSource, win runWindow, stopAt, maxCycles int64, drain bool) (RunResult, error) {
	e.start(src, win, stopAt, maxCycles, drain)
	for {
		if canceled(ctx) {
			e.end(true, ctx.Err())
			return e.rs.res, e.rs.err
		}
		if done, _ := e.Step(); done {
			return e.rs.res, e.rs.err
		}
	}
}

// Step simulates one cycle of the started plan; see (*Engine).Step.
func (e *AtomicEngine) Step() (done bool, err error) {
	rs := &e.rs
	if !rs.active {
		panic("sim: Step called before Start")
	}
	if rs.done {
		return true, rs.err
	}
	m := &rs.m
	cycle := m.Cycles
	if rs.stopAt > 0 && cycle >= rs.stopAt {
		e.end(false, nil)
		return true, rs.err
	}
	if rs.maxCycles > 0 && cycle > rs.maxCycles {
		e.end(false, fmt.Errorf("sim: %s exceeded %d cycles with %d packets in flight",
			e.algo.Name(), rs.maxCycles, m.InFlight))
		return true, rs.err
	}
	prevMoves := m.Moves
	st := &rs.st
	src, win := rs.src, rs.win
	f := e.flt
	if f != nil {
		e.applyFaultsAtomic(cycle, st)
	}
	prof := e.cfg.PhaseProf
	var t0, t1, t2, t3 time.Time
	var other int64
	if prof {
		t0 = time.Now()
		if !rs.lastCycleEnd.IsZero() {
			other = t0.Sub(rs.lastCycleEnd).Nanoseconds()
		}
	}

	// Injection attempts, over nodes whose source may still inject.
	if bs := e.curBatch; bs != nil {
		e.injectBatchAtomic(bs, cycle, win, st)
	} else {
		e.injectScalarAtomic(src, f, cycle, win, st)
	}

	if prof {
		t1 = time.Now()
	}

	// Snapshot the head of every queue: a packet may advance at most
	// once per cycle, even if it lands in a queue processed later.
	for qi := range e.qlen {
		if e.qlen[qi] == 0 {
			e.headID[qi] = 0
		} else {
			e.headID[qi] = e.qAt(qi, 0).ID
		}
	}

	// Drain injection queues into central queues (one hop of the model).
	for u := int32(0); int(u) < e.nodes; u++ {
		sl := &e.injQ[u]
		if !sl.full {
			continue
		}
		if sl.pkt.Dst == u {
			e.deliverAtomic(sl.pkt, cycle, win, st)
			sl.full = false
			e.injFull[u>>6] &^= 1 << (uint(u) & 63)
			continue
		}
		qi := e.queueIndex(u, sl.pkt.Class)
		if e.qFree(qi) >= 1 {
			sl.pkt.InjectedAt = cycle // latency runs from network entry
			l := e.qPush(qi, &sl.pkt)
			if l > st.maxQueue {
				st.maxQueue = l
			}
			if e.obsOn {
				st.obs.GaugeAdd(obs.GQueueOccupancy, 1)
				st.obs.Observe(obs.HQueueLen, int64(l))
			}
			sl.full = false
			e.injFull[u>>6] &^= 1 << (uint(u) & 63)
			st.moves++
		}
	}

	if prof {
		t2 = time.Now()
	}

	// Route(q) for every queue: advance the head packet if possible.
	for u := int32(0); int(u) < e.nodes; u++ {
		r := &e.rngs[u]
		for c := 0; c < e.classes; c++ {
			qi := int(u)*e.classes + c
			if e.qlen[qi] == 0 || e.qAt(qi, 0).ID != e.headID[qi] {
				continue
			}
			pkt := *e.qAt(qi, 0)
			if e.maskFF && pkt.Dst != u {
				// Port-mask fast path: identical move-by-move to running the
				// FirstFree selection over Candidates (including the hashed
				// pick for fault-displaced packets), but the moves are
				// implied by the mask bits and never built. States PortMask
				// declines fall through to the Candidates scan below.
				pm := &rs.pm
				if e.pmr.PortMask(u, core.QueueClass(c), pkt.Work, pkt.Dst, pm) {
					union := pm.StaticUnion() | pm.Dyn
					if f != nil {
						lp := f.livePorts[u]
						pm.Static[0] &= lp
						pm.Static[1] &= lp
						pm.Static[2] &= lp
						pm.Static[3] &= lp
						pm.StaticMask &= lp
						pm.Dyn &= lp
						union = pm.StaticUnion() | pm.Dyn
						if union == 0 {
							e.misrouteAtomic(u, qi, cycle, st)
							continue
						}
					}
					// The atomic model's admissibility depends on the target
					// queue, so (unlike the buffered probe-and-stop scan) the
					// full admissible port set is computed — which the slow
					// path does anyway, and the hashed misroute pick needs.
					adm := uint32(0)
					nbase := int(u) * e.ports
					for mk := union; mk != 0; mk &= mk - 1 {
						p := bits.TrailingZeros32(mk)
						bit := uint32(1) << uint(p)
						tc := 0
						switch {
						case pm.Dyn&bit != 0:
							tc = int(pm.DynClass)
						case pm.PerPort:
							tc = int(pm.PortClass[p])
						default:
							for pm.Static[tc]&bit == 0 {
								tc++
							}
						}
						if e.qFree(int(e.nbr[nbase+p])*e.classes+tc) >= 1 {
							adm |= bit
						}
					}
					if adm == 0 {
						if e.obsOn {
							st.obs.Inc(obs.COutputStalls)
						}
						continue
					}
					sel := bits.TrailingZeros32(adm)
					if f != nil && adm&(adm-1) != 0 && pkt.Misrouted() {
						k := int(misrouteHash(cycle, pkt.ID, pkt.HopCount()) % uint32(bits.OnesCount32(adm)))
						mk := adm
						for i := 0; i < k; i++ {
							mk &= mk - 1
						}
						sel = bits.TrailingZeros32(mk)
					}
					bit := uint32(1) << uint(sel)
					dyn := pm.Dyn&bit != 0
					tc := 0
					switch {
					case dyn:
						tc = int(pm.DynClass)
					case pm.PerPort:
						tc = int(pm.PortClass[sel])
					default:
						for pm.Static[tc]&bit == 0 {
							tc++
						}
					}
					pkt = e.qPop(qi)
					pkt.Hops++
					pkt.Class = core.QueueClass(tc)
					if dyn {
						pkt.Work = pm.DynWork
					} else {
						pkt.Work = pm.Work
					}
					l := e.qPush(int(e.nbr[nbase+sel])*e.classes+tc, &pkt)
					if l > st.maxQueue {
						st.maxQueue = l
					}
					if e.obsOn {
						st.obs.Observe(obs.HQueueLen, int64(l))
						st.obs.Inc(obs.CLinkTransfers)
					}
					st.moves++
					if dyn {
						st.dynamicMoves++
					}
					continue
				}
			}
			moves := e.algo.Candidates(u, core.QueueClass(c), pkt.Work, pkt.Dst, rs.cand[:0])
			if f != nil {
				moves = f.filterLiveMoves(u, moves)
				if len(moves) == 0 {
					// Faults removed every candidate: misroute or drop.
					e.misrouteAtomic(u, qi, cycle, st)
					continue
				}
			}
			nAdm := 0
			for i := range moves {
				if e.admissible(u, core.QueueClass(c), moves[i]) {
					rs.adm[nAdm] = i
					nAdm++
				}
			}
			if nAdm == 0 {
				if e.obsOn {
					st.obs.Inc(obs.COutputStalls)
				}
				continue
			}
			var mv core.Move
			if f != nil && nAdm > 1 && pkt.Misrouted() &&
				(e.cfg.Policy == PolicyFirstFree || e.cfg.Policy == PolicyLastFree) {
				// Positional policies would deterministically walk a
				// fault-displaced packet back into the dead minimal cut;
				// hash the pick instead (see Engine.misroute).
				mv = moves[rs.adm[int(misrouteHash(cycle, pkt.ID, pkt.HopCount())%uint32(nAdm))]]
			} else {
				mv = moves[rs.chooser.choose(r, moves, rs.adm[:nAdm])]
			}
			switch {
			case mv.Deliver:
				pkt = e.qPop(qi)
				if e.obsOn {
					st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
				}
				e.deliverAtomic(pkt, cycle, win, st)
			case mv.Node == u && mv.Class == core.QueueClass(c) && mv.Port == core.PortInternal:
				pkt.Work = mv.Work
				*e.qAt(qi, 0) = pkt
				st.moves++
			default:
				pkt = e.qPop(qi)
				if mv.Port != core.PortInternal {
					pkt.Hops++
				}
				pkt.Class = mv.Class
				pkt.Work = mv.Work
				qi2 := e.queueIndex(mv.Node, mv.Class)
				l := e.qPush(qi2, &pkt)
				if l > st.maxQueue {
					st.maxQueue = l
				}
				if e.obsOn {
					// Pop and push cancel in the occupancy gauge.
					st.obs.Observe(obs.HQueueLen, int64(l))
					if mv.Port != core.PortInternal {
						st.obs.Inc(obs.CLinkTransfers)
					}
				}
				st.moves++
				if mv.Kind == core.Dynamic {
					st.dynamicMoves++
				}
			}
		}
	}

	if prof {
		t3 = time.Now()
	}

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
	if e.obsOn {
		sh := &st.obs
		sh.Add(obs.CInjected, st.injected)
		sh.Add(obs.CDelivered, st.delivered)
		sh.Add(obs.CMoves, st.moves)
		sh.Add(obs.CDynamicMoves, st.dynamicMoves)
		e.obsCore.Fold(sh)
	}
	*st = cycleStats{}
	if prof {
		t4 := time.Now()
		inj := t1.Sub(t0).Nanoseconds()
		drain := t2.Sub(t1).Nanoseconds()
		route := t3.Sub(t2).Nanoseconds()
		merge := t4.Sub(t3).Nanoseconds()
		rs.pt.add(inj, route, drain, 0, merge, other)
		rs.lastCycleEnd = t4
		if e.obsOn {
			c := e.obsCore
			c.AddCounter(obs.CPhaseInjectNs, inj)
			c.AddCounter(obs.CPhaseANs, route)
			c.AddCounter(obs.CPhaseBNs, drain)
			c.AddCounter(obs.CPhaseMergeNs, merge)
			c.AddCounter(obs.CPhaseOtherNs, other)
		}
	}
	m.Cycles = cycle + 1
	m.InFlight = m.Injected - m.Delivered - m.Dropped
	if e.obsOn {
		c := e.obsCore
		c.SetGauge(obs.GInFlight, m.InFlight)
		c.SetGauge(obs.GMaxQueue, int64(m.MaxQueue))
		if f != nil {
			c.SetGauge(obs.GDeadLinks, int64(f.live.DeadLinks()))
			c.SetGauge(obs.GDeadNodes, int64(f.live.DeadNodes()))
		}
		snap := c.EndCycle(m.Cycles)
		if e.observer != nil {
			e.observer.OnCycle(cycle, snap)
		}
	}

	if rs.drain && m.InFlight == 0 && e.allExhausted(rs.src) {
		e.end(false, nil)
		return true, nil
	}
	if m.Moves == prevMoves && m.InFlight > 0 {
		rs.idle++
		if rs.idle >= e.cfg.DeadlockWindow {
			derr := &ErrDeadlock{Cycle: cycle, InFlight: int(m.InFlight), Algorithm: e.algo.Name()}
			derr.Dump = buildDeadlockDump(e.algo, e.flt, int64(e.cfg.DeadlockWindow), cycle, m.InFlight, e.headAt)
			if d, ok := e.observer.(obs.DeadlockObserver); ok {
				d.OnDeadlock(derr.Dump)
			}
			e.end(false, derr)
			return true, rs.err
		}
	} else {
		rs.idle = 0
	}
	return false, nil
}

// headAt exposes queue heads to the deadlock-dump builder.
func (e *AtomicEngine) headAt(u, c int) (*core.Packet, int) {
	qi := u*e.classes + c
	if e.qlen[qi] == 0 {
		return nil, 0
	}
	return e.qAt(qi, 0), int(e.qlen[qi])
}

// applyFaultsAtomic replays the schedule events due at or before cycle.
// Links carry no state in the atomic model, so only node kills purge.
func (e *AtomicEngine) applyFaultsAtomic(cycle int64, st *cycleStats) {
	f := e.flt
	evs := f.sched.Events
	changed := false
	for f.nextEv < len(evs) && evs[f.nextEv].At <= cycle {
		ev := evs[f.nextEv]
		f.nextEv++
		switch {
		case ev.Port < 0 && ev.Up:
			f.live.ReviveNode(int(ev.Node))
		case ev.Port < 0:
			if f.live.KillNode(int(ev.Node)) {
				e.purgeNodeAtomic(ev.Node, cycle, st)
			}
		case ev.Up:
			f.live.ReviveLink(int(ev.Node), int(ev.Port))
		default:
			f.live.KillLink(int(ev.Node), int(ev.Port))
		}
		changed = true
	}
	if changed {
		f.recomputeLivePorts()
	}
}

// purgeNodeAtomic drops everything a dead node holds. Nothing re-enters it:
// routing and misrouting consult livePorts, which excludes dead endpoints.
func (e *AtomicEngine) purgeNodeAtomic(u int32, cycle int64, st *cycleStats) {
	for c := 0; c < e.classes; c++ {
		qi := e.queueIndex(u, core.QueueClass(c))
		n := int(e.qlen[qi])
		for i := 0; i < n; i++ {
			e.dropAtomic(e.qAt(qi, int32(i)), cycle, st)
		}
		e.qlen[qi] = 0
		e.qhead[qi] = 0
		if e.obsOn && n > 0 {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -int64(n))
		}
	}
	if e.injQ[u].full {
		e.dropAtomic(&e.injQ[u].pkt, cycle, st)
		e.injQ[u] = injSlot{}
		e.injFull[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// dropAtomic accounts one packet lost to faults.
func (e *AtomicEngine) dropAtomic(pkt *core.Packet, cycle int64, st *cycleStats) {
	st.dropped++
	if e.obsOn {
		st.obs.Inc(obs.CFaultDrops)
		st.obs.Observe(obs.HDropAge, cycle-pkt.InjectedAt+1)
	}
}

// misrouteAtomic is the atomic model's degraded-routing fallback: the head
// packet of queue qi, whose every minimal candidate died, moves into any
// surviving neighbor's queue (re-entering it as a fresh injection with the
// misroute flag set) or is dropped once its hop budget runs out.
func (e *AtomicEngine) misrouteAtomic(u int32, qi int, cycle int64, st *cycleStats) {
	f := e.flt
	pkt := *e.qAt(qi, 0)
	lp := f.livePorts[u]
	if lp == 0 || pkt.HopCount() >= e.algo.MaxHops(pkt.Src, pkt.Dst)+f.hopBudget {
		dropped := e.qPop(qi)
		if e.obsOn {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -1)
		}
		e.dropAtomic(&dropped, cycle, st)
		return
	}
	// Hashed start port, not a (cycle+hops) rotation: see Engine.misroute
	// for why the rotation can orbit a packet forever.
	n := bits.OnesCount32(lp)
	k := int(misrouteHash(cycle, pkt.ID, pkt.HopCount()) % uint32(n))
	upper := lp
	for i := 0; i < k; i++ {
		upper &= upper - 1
	}
	for _, mk := range [2]uint32{upper, lp ^ upper} {
		for ; mk != 0; mk &= mk - 1 {
			p := bits.TrailingZeros32(mk)
			v := int32(e.topo.Neighbor(int(u), p))
			class, work := e.algo.Inject(v, pkt.Dst)
			qi2 := e.queueIndex(v, class)
			if e.qFree(qi2) < 1 {
				continue
			}
			pkt = e.qPop(qi)
			pkt.Hops++
			pkt.MarkMisrouted()
			pkt.Class = class
			pkt.Work = work
			l := e.qPush(qi2, &pkt)
			if l > st.maxQueue {
				st.maxQueue = l
			}
			if e.obsOn {
				st.obs.Observe(obs.HQueueLen, int64(l))
				st.obs.Inc(obs.CLinkTransfers)
				st.obs.Inc(obs.CMisrouted)
			}
			st.moves++
			return
		}
	}
	if e.obsOn {
		st.obs.Inc(obs.COutputStalls)
	}
}

func (e *AtomicEngine) allExhausted(src TrafficSource) bool {
	for wi := range e.actBits {
		for word := e.actBits[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if !src.Exhausted(int32(wi<<6 + b)) {
				return false
			}
			e.actBits[wi] &^= 1 << uint(b)
		}
	}
	return true
}

// admissible implements the atomic model's check: a move may be taken iff
// the target queue has MinFree free slots right now (deliveries and
// in-place moves are always admissible).
func (e *AtomicEngine) admissible(u int32, class core.QueueClass, mv core.Move) bool {
	switch {
	case mv.Deliver:
		return true
	case mv.Node == u && mv.Class == class && mv.Port == core.PortInternal:
		return true
	default:
		required := int(mv.MinFree)
		// In the atomic model nothing is ever in flight, so a credited
		// move's condition reduces to requiring Credit free slots.
		if int(mv.Credit) > required {
			required = int(mv.Credit)
		}
		return e.qFree(e.queueIndex(mv.Node, mv.Class)) >= required
	}
}

func (e *AtomicEngine) deliverAtomic(pkt core.Packet, cycle int64, win runWindow, st *cycleStats) {
	if !e.cfg.DisableInvariantChecks && !pkt.Misrouted() {
		bound := e.algo.MaxHops(pkt.Src, pkt.Dst)
		if pkt.HopCount() > bound {
			panic(fmt.Sprintf("sim: %s: packet %d took %d hops from %d to %d, bound %d",
				e.algo.Name(), pkt.ID, pkt.HopCount(), pkt.Src, pkt.Dst, bound))
		}
		if e.algo.Props().Minimal && pkt.HopCount() != bound {
			panic(fmt.Sprintf("sim: %s: minimal algorithm delivered packet %d in %d hops, distance %d",
				e.algo.Name(), pkt.ID, pkt.HopCount(), bound))
		}
	}
	st.delivered++
	st.moves++
	lat := cycle - pkt.InjectedAt + 1
	if e.observer != nil {
		e.observer.OnDeliver(pkt, lat)
	}
	if e.obsOn {
		st.obs.Observe(obs.HLatency, lat)
	}
	if win.contains(cycle) {
		st.latencySum += lat
		st.measured++
		if lat > st.latencyMax {
			st.latencyMax = lat
		}
	}
}

// injectScalarAtomic is the per-node injection phase of Step: one
// Wants/Take round per active node, interleaved with fault gating. The
// batched path (injectBatchAtomic) replaces it when the source implements
// BatchSource and no faults are active.
func (e *AtomicEngine) injectScalarAtomic(src TrafficSource, f *faultState, cycle int64, win runWindow, st *cycleStats) {
	for wi := range e.actBits {
		for word := e.actBits[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			u := int32(wi<<6 + b)
			if src.Exhausted(u) {
				e.actBits[wi] &^= 1 << uint(b)
				continue
			}
			if f != nil {
				if !f.live.NodeAlive(int(u)) {
					continue
				}
				if cycle < f.injNext[u] {
					if e.obsOn {
						st.obs.Inc(obs.CInjRetries)
					}
					continue
				}
			}
			if !src.Wants(u, cycle) {
				continue
			}
			if win.contains(cycle) {
				st.attempts++
			}
			if e.obsOn {
				st.obs.Inc(obs.CInjAttempts)
			}
			if e.injQ[u].full {
				if e.obsOn {
					st.obs.Inc(obs.CInjBackpressure)
				}
				if f != nil {
					f.backoff(u, cycle)
				}
				continue
			}
			dst := src.Take(u, cycle)
			if f != nil {
				f.injFail[u] = 0
				if !f.live.NodeAlive(int(dst)) || (f.livePorts[u] == 0 && dst != u) {
					e.nextID[u]++
					st.injected++
					if win.contains(cycle) {
						st.successes++
					}
					pkt := core.Packet{ID: e.nextID[u], Src: u, Dst: dst, InjectedAt: cycle}
					e.dropAtomic(&pkt, cycle, st)
					continue
				}
			}
			class, work := e.algo.Inject(u, dst)
			e.nextID[u]++
			e.injQ[u] = injSlot{
				pkt: core.Packet{
					ID: e.nextID[u], Src: u, Dst: dst, InjectedAt: cycle,
					Class: class, MinFree: 1, Work: work,
				},
				full: true,
			}
			e.injFull[u>>6] |= 1 << (uint(u) & 63)
			st.injected++
			if win.contains(cycle) {
				st.successes++
			}
		}
	}
}
