package sim

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/obs"
)

// BatchSource is the optional batched extension of TrafficSource. A source
// that implements it lets the engines replace the per-node Wants/Take
// interface dispatch of the injection phase with one FillCycle call per
// worker shard per cycle: the source writes the cycle's injections into a
// flat buffer and the driver commits them in a tight loop with no interface
// calls inside. The driver detects the interface at the start of a run;
// runs with fault injection always use the per-node fill step, and
// Unbatched hides FillCycle to force it as a same-binary baseline.
//
// The contract makes the two fill steps bit-identical, which the
// determinism tests pin:
//
//   - full is the engine's injection-queue occupancy bitmap: bit u (word
//     u/64, bit u%64) is set while node u's injection queue is occupied, so
//     an attempt there fails. FillCycle must count such attempts in blocked
//     without consuming a destination draw — exactly like the per-node
//     step, where a Wants against a full queue is counted but Take is not
//     called.
//   - Free nodes that attempt must append to out in ascending node order
//     and consume per-node generator state exactly as the per-node
//     Wants-then-Take sequence would.
//   - [lo, hi) is one worker's shard; lo is 64-aligned and hi is either
//     64-aligned or the node count. FillCycle must touch only per-node
//     state of [lo, hi) and only the words of full covering [lo, hi):
//     other words are concurrently owned by other workers. Any shared
//     state (e.g. a trace reader) must synchronize internally and behave
//     identically for every shard decomposition.
//   - out has capacity for at least hi-lo entries.
type BatchSource interface {
	TrafficSource
	// FillCycle produces the injections of nodes [lo, hi) for cycle. It
	// returns the number of entries written to out and the count of
	// attempts that failed against an occupied injection queue.
	FillCycle(cycle int64, lo, hi int32, full []uint64, out []core.PendingInject) (n, blocked int)
}

// Unbatched hides src's FillCycle, so the engines inject through the
// per-node fill step: the same-binary baseline, and the test oracle, for
// the batched path.
func Unbatched(src TrafficSource) TrafficSource { return unbatched{src} }

type unbatched struct{ TrafficSource }

// inject is the injection phase of worker w over nodes [lo, hi). A fill
// step collects the cycle's injections into the worker's buffer — one
// FillCycle call for a BatchSource, fillNodes otherwise — and one commit
// loop turns them into packets in the injection queues. It returns the
// number of fill entries, so an engine can skip its own bookkeeping when
// nothing was injected.
func (d *driver) inject(w int, lo, hi int32) int {
	st := &d.stats[w]
	buf := d.injBuf[w]
	cycle := d.rs.now
	var n, blocked int
	if bs := d.rs.batch; bs != nil {
		n, blocked = bs.FillCycle(cycle, lo, hi, d.injFull, buf)
	} else {
		n, blocked = d.fillNodes(lo, hi, buf, st)
	}
	inWin := d.rs.win.contains(cycle)
	if inWin {
		st.attempts += int64(n + blocked)
	}
	if d.obsOn {
		st.obs.Add(obs.CInjAttempts, int64(n+blocked))
		st.obs.Add(obs.CInjBackpressure, int64(blocked))
	}
	f := d.flt
	for i := range buf[:n] {
		u, dst := buf[i].Node, buf[i].Dst
		d.nextID[u]++
		if f != nil && (!f.live.NodeAlive(int(dst)) || (f.livePorts[u] == 0 && dst != u)) {
			// Unroutable at injection: the destination is dead, or the
			// source is isolated. The packet counts as injected and then
			// immediately dropped, keeping Injected-Delivered-Dropped exact.
			pkt := core.Packet{ID: d.nextID[u], Src: u, Dst: dst, InjectedAt: cycle}
			d.drop(&pkt, cycle, st)
			continue
		}
		class, work := d.algo.Inject(u, dst)
		d.injQ[u] = injSlot{
			pkt: core.Packet{
				ID: d.nextID[u], Src: u, Dst: dst, InjectedAt: cycle,
				Class: class, MinFree: 1, Work: work,
			},
			full: true,
		}
		d.injFull[u>>6] |= 1 << (uint(u) & 63)
	}
	st.injected += int64(n)
	if inWin {
		st.successes += int64(n)
	}
	return n
}

// fillNodes is the per-node fill step: one Wants/Take round per node of
// [lo, hi) whose source is still active, in ascending node order. It serves
// sources without FillCycle and every faulted run, because fault gating (a
// dead node does not consult its source) and retry-with-backoff work per
// node. It returns the entries written to buf and the attempts that failed
// against an occupied injection queue, as FillCycle does.
func (d *driver) fillNodes(lo, hi int32, buf []core.PendingInject, st *cycleStats) (n, blocked int) {
	src, cycle, f := d.rs.src, d.rs.now, d.flt
	for wi := int(lo) >> 6; wi < (int(hi)+63)>>6; wi++ {
		for word := d.injBits[wi]; word != 0; word &= word - 1 {
			u := int32(wi*64 + bits.TrailingZeros64(word))
			if src.Exhausted(u) {
				d.injBits[wi] &^= 1 << (uint(u) & 63)
				continue
			}
			if f != nil {
				if !f.live.NodeAlive(int(u)) {
					continue // a dead node does not consult its source
				}
				if cycle < f.injNext[u] {
					// Retry-with-backoff: the node's last attempts hit a
					// saturated queue pool; it sits out the backoff window.
					if d.obsOn {
						st.obs.Inc(obs.CInjRetries)
					}
					continue
				}
			}
			if !src.Wants(u, cycle) {
				continue
			}
			if d.injFull[wi]&(1<<(uint(u)&63)) != 0 {
				blocked++ // injection queue occupied: the attempt fails
				if f != nil {
					f.backoff(u, cycle)
				}
				continue
			}
			buf[n] = core.PendingInject{Node: u, Dst: src.Take(u, cycle)}
			n++
			if f != nil {
				f.injFail[u] = 0
			}
		}
	}
	return n, blocked
}
