package core

import "sync/atomic"

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
}

// newRouteTable compiles the mask table over the given flat adjacency and
// distance tables, choosing the tier by fullLimit.
func newRouteTable(nbr []int32, dist []int16, n, ports, fullLimit int) *routeTable {
	t := &routeTable{n: n, ports: ports, nbr: nbr, dist: dist}
	if n <= fullLimit {
		t.full = make([]uint32, n*n)
		for dst := 0; dst < n; dst++ {
			t.fillRow(dst, t.full[dst*n:(dst+1)*n])
		}
	} else {
		t.rows = make([]atomic.Pointer[[]uint32], n)
	}
	return t
}

// fillRow computes the masks of every node toward one destination: bit p
// of row[u] is set iff port p of u leads one hop closer to dst. The
// destination's own row entry stays 0 (delivery is not a port move).
func (t *routeTable) fillRow(dst int, row []uint32) {
	for u := 0; u < t.n; u++ {
		closer := int16(t.dist[u*t.n+dst]) - 1
		m := uint32(0)
		for p := 0; p < t.ports; p++ {
			if v := t.nbr[u*t.ports+p]; v >= 0 && t.dist[int(v)*t.n+dst] == closer {
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
	t.fillRow(int(dst), row)
	t.rows[dst].CompareAndSwap(nil, &row)
	return *t.rows[dst].Load()
}
