package sim

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/topology"
)

// faultState is the per-engine fault machinery, shared by both engines. It
// is nil when the configuration schedules no faults, so the no-fault hot
// path pays a single pointer test per guarded site.
//
// Determinism: the schedule is compiled before the run (probabilistic
// selections resolved there), events are applied sequentially at cycle
// boundaries, and every routing-time decision (candidate filtering,
// misroute port choice, injection backoff) depends only on node-local state
// — so fault-enabled runs stay bit-deterministic across worker counts.
type faultState struct {
	sched     *fault.Schedule
	nextEv    int
	live      *topology.Liveness
	livePorts []uint32  // per node: usable out-port mask (link + both endpoints alive)
	inEdges   [][]int32 // per node: directed-link ids (u*ports+p) entering it
	hopBudget int       // extra traversals beyond MaxHops before a misrouted packet drops
	injFail   []uint8   // per node: consecutive failed injection attempts (backoff exponent)
	injNext   []int64   // per node: next cycle at which injection may be attempted
}

// maxBackoffShift caps the injection backoff at 2^6 = 64 cycles.
const maxBackoffShift = 6

// defaultHopBudget is the misroute budget when neither Config.HopBudget nor
// the plan sets one.
const defaultHopBudget = 64

func newFaultState(t topology.Topology, sched *fault.Schedule, hopBudget int) *faultState {
	n, ports := t.Nodes(), t.Ports()
	f := &faultState{
		sched:     sched,
		live:      topology.NewLiveness(t),
		livePorts: make([]uint32, n),
		inEdges:   make([][]int32, n),
		hopBudget: hopBudget,
		injFail:   make([]uint8, n),
		injNext:   make([]int64, n),
	}
	if f.hopBudget <= 0 {
		f.hopBudget = sched.HopBudget
	}
	if f.hopBudget <= 0 {
		f.hopBudget = defaultHopBudget
	}
	for u := 0; u < n; u++ {
		for p := 0; p < ports; p++ {
			if v := t.Neighbor(u, p); v != topology.None && v != u {
				f.inEdges[v] = append(f.inEdges[v], int32(u*ports+p))
			}
		}
	}
	f.reset()
	return f
}

func (f *faultState) reset() {
	f.nextEv = 0
	f.live.Reset()
	f.recomputeLivePorts()
	for u := range f.injFail {
		f.injFail[u] = 0
		f.injNext[u] = 0
	}
}

func (f *faultState) recomputeLivePorts() {
	for u := range f.livePorts {
		f.livePorts[u] = f.live.LivePorts(u)
	}
}

// portAlive reports whether the directed link out of u through port p is
// usable for routing this cycle.
func (f *faultState) portAlive(u int32, p int16) bool {
	return f.livePorts[u]&(1<<uint(p)) != 0
}

// backoff handles a saturated injection attempt: the node waits an
// exponentially growing number of cycles before the next attempt.
func (f *faultState) backoff(u int32, cycle int64) {
	if f.injFail[u] < maxBackoffShift {
		f.injFail[u]++
	}
	f.injNext[u] = cycle + 1<<f.injFail[u]
}

// deadForGood reports whether node u is dead and no event still pending in
// the schedule revives it.
func (f *faultState) deadForGood(u int32) bool {
	if f.live.NodeAlive(int(u)) {
		return false
	}
	for _, ev := range f.sched.Events[f.nextEv:] {
		if ev.Port < 0 && ev.Up && ev.Node == u {
			return false
		}
	}
	return true
}

// applyFaults replays all schedule events due at or before cycle. It runs
// sequentially before the node cycle, so purges and liveness flips are
// ordered identically for every worker count. A killed node or link first
// loses what the engine holds for it (nodeModel.purge); a killed node then
// loses its central queues and injection queue here.
func (d *driver) applyFaults(cycle int64) {
	f := d.flt
	st := &d.stats[0]
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
				d.model.purge(ev.Node, -1, st)
				d.purgeQueues(ev.Node, cycle, st)
			}
		case ev.Up:
			f.live.ReviveLink(int(ev.Node), int(ev.Port))
		default:
			if f.live.KillLink(int(ev.Node), int(ev.Port)) {
				d.model.purge(ev.Node, int(ev.Port), st)
			}
		}
		changed = true
	}
	if changed {
		f.recomputeLivePorts()
	}
}

// purgeQueues drops every packet in a dead node's central queues and
// injection queue. Nothing re-enters the node until it is revived: routing,
// cut-through and misrouting all consult livePorts, which excludes dead
// endpoints.
func (d *driver) purgeQueues(u int32, cycle int64, st *cycleStats) {
	for qi := int(u) * d.classes; qi < int(u+1)*d.classes; qi++ {
		n := d.qlen[qi]
		for i := int32(0); i < n; i++ {
			d.drop(d.qAt(qi, i), cycle, st)
		}
		d.qlen[qi] = 0
		d.qhead[qi] = 0
		if d.obsOn && n > 0 {
			st.obs.GaugeAdd(obs.GQueueOccupancy, -int64(n))
		}
	}
	if d.injQ[u].full {
		d.drop(&d.injQ[u].pkt, cycle, st)
		d.injQ[u] = injSlot{}
		d.injFull[u>>6] &^= 1 << (uint(u) & 63)
	}
}

// purge is the buffered engine's fault hook. A failed link loses the
// packets committed to its output buffers. A failed node loses its input
// buffers and the packets committed toward it or out of it in link output
// buffers, and its queue occupancy bookkeeping is cleared; the driver then
// empties its central and injection queues.
func (e *Engine) purge(u int32, port int, st *cycleStats) {
	cycle := e.rs.now
	if port >= 0 {
		e.purgeLink(int(u)*e.ports+port, cycle, st)
		return
	}
	for _, l := range e.flt.inEdges[u] {
		e.purgeLink(int(l), cycle, st)
	}
	for qi := int(u) * e.classes; qi < int(u+1)*e.classes; qi++ {
		if e.atomicOcc {
			atomic.StoreInt32(&e.occ[qi], 0)
			atomic.StoreInt32(&e.inbound[qi], 0)
		} else {
			e.occ[qi] = 0
			e.inbound[qi] = 0
		}
	}
	e.qTotal[u] = 0
	base, deg := e.inBase[u], e.inDeg[u]
	for si := base; si < base+deg; si++ {
		if e.inFull[si] != 0 {
			e.drop(&e.inPkt[si], cycle, st)
			e.inFull[si] = 0
		}
	}
	e.inCount[u] = 0
	lbase := int(u) * e.ports
	for p := 0; p < e.ports; p++ {
		if e.nbr[lbase+p] >= 0 {
			e.purgeLink(lbase+p, cycle, st)
		}
	}
}

// purgeLink drops the packets waiting in the output buffers of the directed
// link l: they were committed to a link that no longer exists. Input
// buffers at the far end keep their packets — those already crossed.
func (e *Engine) purgeLink(l int, cycle int64, st *cycleStats) {
	u := int32(l / e.ports)
	base := l * e.bufClasses
	for bc := 0; bc < e.bufClasses; bc++ {
		if e.outFull[base+bc] == 0 {
			continue
		}
		pkt := &e.outPkt[base+bc]
		if pkt.MinFree == 0 {
			// Credited packet: release its reservation at the target queue.
			atomic.AddInt32(&e.inbound[e.queueIndex(e.nbr[l], pkt.Class)], -1)
		}
		e.drop(pkt, cycle, st)
		e.outFull[base+bc] = 0
		e.outLink[l]--
		e.outCount[u]--
	}
}

// misrouteHash mixes the cycle, packet identity and hop count into the
// starting-port draw for a misroute (splitmix64 finalizer).
func misrouteHash(cycle, id int64, hops int) uint32 {
	x := uint64(cycle)*0x9E3779B97F4A7C15 ^ uint64(id)<<32 ^ uint64(hops)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x)
}

// misroute is the degraded-routing fallback: every minimal candidate of the
// packet at FIFO position idx of queue qi was removed by faults. The packet
// is re-routed through any surviving link's shared dynamic buffer — it
// re-enters the neighbor as a fresh injection (class and scratch from
// Inject) with the misroute flag set — or dropped once its hop budget is
// exhausted. Reports whether the packet left the queue.
func (e *Engine) misroute(u int32, qi int, idx int32, pkt *core.Packet, cycle int64, st *cycleStats) bool {
	f := e.flt
	lp := f.livePorts[u]
	if lp == 0 || pkt.HopCount() >= e.algo.MaxHops(pkt.Src, pkt.Dst)+f.hopBudget {
		e.drop(pkt, cycle, st)
		e.qDrop(u, qi, idx)
		return true
	}
	// Pick the starting port from a hash of the cycle, the packet and its
	// progress — deterministic and node-local, so worker counts cannot
	// change it. A plain (cycle+hops) rotation is not enough: on a closed
	// detour of length L both advance by L per lap, so the same port would
	// be chosen forever whenever 2L divides the live-port count, and the
	// packet would orbit until its hop budget ran out.
	n := bits.OnesCount32(lp)
	k := int(misrouteHash(cycle, pkt.ID, pkt.HopCount()) % uint32(n))
	upper := lp
	for i := 0; i < k; i++ {
		upper &= upper - 1
	}
	lbase := int(u) * e.ports
	for _, mk := range [2]uint32{upper, lp ^ upper} {
		for ; mk != 0; mk &= mk - 1 {
			p := bits.TrailingZeros32(mk)
			si := (lbase+p)*e.bufClasses + e.classes // shared dynamic buffer
			if e.outFull[si] != 0 {
				continue
			}
			v := e.nbr[lbase+p]
			class, work := e.algo.Inject(v, pkt.Dst)
			out := &e.outPkt[si]
			*out = *pkt
			out.Class = class
			out.Work = work
			out.MinFree = 1
			out.Hops++
			out.MarkMisrouted()
			e.qDrop(u, qi, idx)
			e.outFull[si] = 1
			e.outLink[lbase+p]++
			e.outCount[u]++
			st.moves++
			if e.obsOn {
				st.obs.Inc(obs.CMisrouted)
			}
			return true
		}
	}
	if e.obsOn {
		st.obs.Inc(obs.COutputStalls)
	}
	return false
}

// filterLiveMoves removes remote candidates over dead links, in place.
// The returned slice is empty exactly when faults trapped the packet
// (deliveries and internal moves always survive).
func (f *faultState) filterLiveMoves(u int32, moves []core.Move) []core.Move {
	lp := f.livePorts[u]
	kept := moves[:0]
	for i := range moves {
		if p := moves[i].Port; p >= 0 && lp&(1<<uint(p)) == 0 {
			continue
		}
		kept = append(kept, moves[i])
	}
	return kept
}

// deadlockDump assembles the wait-for state behind a watchdog firing: one
// entry per non-empty central queue head, with the outputs its candidates
// wait on.
func (d *driver) deadlockDump(cycle, inFlight int64) *obs.DeadlockDump {
	dump := &obs.DeadlockDump{Cycle: cycle, Window: int64(d.cfg.DeadlockWindow), InFlight: inFlight}
	var cand []core.Move
	for u := 0; u < d.nodes; u++ {
		for c := 0; c < d.classes; c++ {
			qi := u*d.classes + c
			if d.qlen[qi] == 0 {
				continue
			}
			if len(dump.Waits) >= obs.DumpLimit {
				dump.Truncated = true
				return dump
			}
			pkt := d.qAt(qi, 0)
			w := obs.WaitFor{
				Node: int32(u), Class: uint8(c), QueueLen: int(d.qlen[qi]),
				PacketID: pkt.ID, Dst: pkt.Dst,
			}
			cand = d.algo.Candidates(int32(u), core.QueueClass(c), pkt.Work, pkt.Dst, cand[:0])
			for _, mv := range cand {
				if mv.Deliver || mv.Port == core.PortInternal {
					continue
				}
				bc := uint8(mv.Class)
				dyn := mv.Kind == core.Dynamic
				if dyn {
					bc = uint8(d.classes)
				}
				dead := false
				if d.flt != nil {
					dead = !d.flt.portAlive(int32(u), mv.Port)
				}
				w.WaitsOn = append(w.WaitsOn, obs.WaitTarget{
					Node: int32(d.topo.Neighbor(u, int(mv.Port))), Port: mv.Port,
					Class: bc, Dynamic: dyn, Dead: dead,
				})
			}
			dump.Waits = append(dump.Waits, w)
		}
	}
	return dump
}
