package core

import (
	"sync/atomic"

	"repro/internal/topology"
)

// RouteTableFullNodes is the route-table memory tier threshold: networks
// with at most this many nodes get the full destination-major n*n uint32
// mask table at construction (2048^2 x 4 B = 16 MB worst case); larger
// networks — up to the 4096-node generator cap, where a full table would
// cost 64 MB — get deterministic per-destination rows built lazily on
// first use instead, so memory scales with the destination set actually
// routed to. Tests and memory tuning override it per instance with
// GraphRouteTableFullLimit.
const RouteTableFullNodes = 2048

// RouteTableRouter is implemented by algorithms that compile their routing
// relation into flat next-hop tables at construction (GraphAdaptive).
// WithoutRouteTable returns an equivalent algorithm routing through the
// uncompiled scan path: decisions are bit-identical, only the per-decision
// cost differs. Callers build the engine on that view for same-binary A/B
// benchmarking and cross-check tests, so both paths stay reachable in one
// binary.
type RouteTableRouter interface {
	Algorithm
	WithoutRouteTable() Algorithm
}

// routeTable is the compiled form of the minimal fully-adaptive routing
// relation over a static digraph: mask(u, dst) is the set of ports of u
// whose endpoint is one hop closer to dst — a pure function of the
// adjacency, so it is computed once here and the hot path is a single
// load. Rows are destination-major (all nodes' masks for one destination
// contiguous) because that is the unit the lazy tier builds.
//
// A row is filled from the distances of every node toward its destination,
// read as one contiguous n-entry row that stays in L1 while the fill
// streams the flat adjacency — not as a column of the source-major
// distance table, whose n-entry stride would touch a new cache line per
// node and per port. On a symmetric network (every link has a reverse, as
// in every generated family) the distance table's own row dst is that
// row; otherwise a reverse BFS toward dst computes it into scratch, so no
// second n*n table is kept.
type routeTable struct {
	n     int
	ports int
	nbr   []int32 // flat node-major adjacency, shared with GraphAdaptive
	dist  []int16 // flat source-major distances, shared with GraphAdaptive
	// full is the complete n*n table (full[dst*n+u]), nil on the lazy tier.
	full []uint32
	// rows holds the lazy tier's per-destination rows. A row's content is a
	// pure function of the graph, so the first-touch race is benign: every
	// builder produces identical bits and CompareAndSwap keeps exactly one
	// canonical slice; concurrent engine workers therefore stay
	// bit-deterministic. After a destination's first use the path is
	// allocation-free, like the full tier.
	rows []atomic.Pointer[[]uint32]
	// rev searches reversed links for the distances toward a destination;
	// nil on a symmetric network, where row dst of dist holds them.
	rev *topology.BFS
}

// newRouteTable compiles the mask table over the given flat adjacency and
// distance tables, choosing the tier by fullLimit.
func newRouteTable(nbr []int32, dist []int16, n, ports, fullLimit int) *routeTable {
	t := &routeTable{n: n, ports: ports, nbr: nbr, dist: dist}
	if !topology.Symmetric(nbr, n, ports) {
		t.rev = topology.NewBFS(nbr, n, ports)
	}
	if n <= fullLimit {
		t.full = make([]uint32, n*n)
		var s towardScratch
		for dst := 0; dst < n; dst++ {
			t.fillRow(dst, t.full[dst*n:(dst+1)*n], &s)
		}
	} else {
		t.rows = make([]atomic.Pointer[[]uint32], n)
	}
	return t
}

// towardScratch is the reverse search's scratch, allocated on first use.
type towardScratch struct {
	row   []int16
	queue []int32
}

// toward returns the distances of every node to dst.
func (t *routeTable) toward(dst int, s *towardScratch) []int16 {
	if t.rev == nil {
		return t.dist[dst*t.n : (dst+1)*t.n]
	}
	if s.row == nil {
		s.row, s.queue = make([]int16, t.n), make([]int32, 0, t.n)
	}
	t.rev.To(dst, s.row, s.queue)
	return s.row
}

// fillRow computes the masks of every node toward one destination: bit p
// of row[u] is set iff port p of u leads one hop closer to dst. The
// destination's own row entry stays 0 (delivery is not a port move).
func (t *routeTable) fillRow(dst int, row []uint32, s *towardScratch) {
	toward := t.toward(dst, s)
	for u := range row {
		closer := toward[u] - 1
		m := uint32(0)
		for p, v := range t.nbr[u*t.ports : (u+1)*t.ports] {
			if v >= 0 && toward[v] == closer {
				m |= 1 << uint(p)
			}
		}
		row[u] = m
	}
}

// mask returns the minimal-port candidate set of node toward dst.
func (t *routeTable) mask(node, dst int32) uint32 {
	if t.full != nil {
		return t.full[int(dst)*t.n+int(node)]
	}
	if p := t.rows[dst].Load(); p != nil {
		return (*p)[node]
	}
	return t.buildRow(dst)[node]
}

// buildRow is the lazy tier's slow path, kept out of mask so the hot path
// inlines. See routeTable.rows for why the build race is benign.
func (t *routeTable) buildRow(dst int32) []uint32 {
	row := make([]uint32, t.n)
	t.fillRow(int(dst), row, &towardScratch{})
	t.rows[dst].CompareAndSwap(nil, &row)
	return *t.rows[dst].Load()
}
