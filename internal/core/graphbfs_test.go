package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// refDistances is the reference the BFS kernel and the route-table fill
// are checked against: a plain FIFO breadth-first search from every node
// over the per-node port lists (None = no link), dist[u][v] = -1 where v is
// unreachable from u.
func refDistances(adj [][]int32) [][]int {
	n := len(adj)
	dist := make([][]int, n)
	for s := range dist {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if v != topology.None && row[v] < 0 {
					row[v] = row[u] + 1
					queue = append(queue, int(v))
				}
			}
		}
		dist[s] = row
	}
	return dist
}

// firstUnreachable returns the first ordered pair of ref with no path, in
// (source, destination) order.
func firstUnreachable(ref [][]int) (s, v int, ok bool) {
	for s, row := range ref {
		for v, d := range row {
			if d < 0 {
				return s, v, true
			}
		}
	}
	return 0, 0, false
}

// checkGraphAdaptive checks a graph-adaptive instance over adj on both
// route-table tiers against the reference distances: MaxHops and the
// diameter (NumClasses-1) equal the reference, and every (node, dst) mask of
// the full table, the lazy rows and the scan path equals the reference's
// one-hop-closer port set.
func checkGraphAdaptive(t *testing.T, topo topology.Topology, adj [][]int32, ref [][]int) {
	t.Helper()
	full, err := core.NewGraphAdaptive(topo)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := core.NewGraphAdaptive(topo, core.GraphRouteTableFullLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	scan := full.WithoutRouteTable().(core.PortMaskRouter)
	diam := 0
	for _, row := range ref {
		for _, d := range row {
			diam = max(diam, d)
		}
	}
	if got := full.NumClasses() - 1; got != diam {
		t.Fatalf("diameter %d, reference BFS says %d", got, diam)
	}
	var pmF, pmL, pmS core.PortMasks
	for u := range adj {
		for dst := range adj {
			if got := full.MaxHops(int32(u), int32(dst)); got != ref[u][dst] {
				t.Fatalf("distance %d->%d = %d, reference BFS says %d", u, dst, got, ref[u][dst])
			}
			if u == dst {
				continue
			}
			want := uint32(0)
			for p, v := range adj[u] {
				if v != topology.None && ref[v][dst] == ref[u][dst]-1 {
					want |= 1 << uint(p)
				}
			}
			okF := full.PortMask(int32(u), 0, 0, int32(dst), &pmF)
			okL := lazy.PortMask(int32(u), 0, 0, int32(dst), &pmL)
			okS := scan.PortMask(int32(u), 0, 0, int32(dst), &pmS)
			if !okF || !okL || !okS {
				t.Fatalf("%d->%d: PortMask declined (full %v, lazy %v, scan %v)", u, dst, okF, okL, okS)
			}
			if pmF.StaticMask != want || pmL.StaticMask != want || pmS.StaticMask != want {
				t.Fatalf("%d->%d: masks full %b, lazy %b, scan %b; reference %b",
					u, dst, pmF.StaticMask, pmL.StaticMask, pmS.StaticMask, want)
			}
		}
	}
}

// checkGraph checks a Graph's distance table and diameter against the
// reference, then its routing through checkGraphAdaptive.
func checkGraph(t *testing.T, g *topology.Graph, adj [][]int32) {
	t.Helper()
	ref := refDistances(adj)
	n := len(adj)
	diam := 0
	for u, row := range ref {
		for v, d := range row {
			if got := int(g.Distances()[u*n+v]); got != d {
				t.Fatalf("Distances[%d->%d] = %d, reference BFS says %d", u, v, got, d)
			}
			diam = max(diam, d)
		}
	}
	if g.Diameter() != diam {
		t.Fatalf("Diameter = %d, reference BFS says %d", g.Diameter(), diam)
	}
	checkGraphAdaptive(t, g, adj, ref)
}

// flatTopology exposes an adjacency to NewGraphAdaptive as a plain
// Topology rather than a *topology.Graph, so routing takes the generic path
// (Flatten, the shared BFS kernel, no precomputed distances). Distance is
// the reference BFS, as for the closed-form families that define it
// directly. Self-loops and duplicate links, which NewGraph rejects but a
// closed-form family may have, are allowed.
type flatTopology struct {
	adj [][]int32
	ref [][]int
}

func (f flatTopology) Name() string { return "flat" }
func (f flatTopology) Nodes() int   { return len(f.adj) }
func (f flatTopology) Ports() int   { return len(f.adj[0]) }
func (f flatTopology) Neighbor(u, p int) int {
	return int(f.adj[u][p])
}
func (f flatTopology) ReversePort(u, p int) int { return topology.None }
func (f flatTopology) PortTo(u, v int) int {
	for p, w := range f.adj[u] {
		if int(w) == v {
			return p
		}
	}
	return topology.None
}
func (f flatTopology) Distance(a, b int) int { return f.ref[a][b] }

// TestRouteTableAgainstReferenceBFS extends the seed grid's symmetric
// networks with the cases where a row of the distance table is not the
// column toward its node: a hand-built digraph with one-way links, whose
// route rows come from the reverse BFS, and the shuffle-exchange network
// routed by graph-adaptive through Flatten (one-way shuffle links, and
// self-loops at the all-zero and all-one nodes). Distances, diameter and
// both route-table tiers must equal a plain reference BFS.
func TestRouteTableAgainstReferenceBFS(t *testing.T) {
	t.Run("digraph", func(t *testing.T) {
		// A directed 7-ring with a two-way chord 0<->3, one-way chords
		// 2->5 and 6->2, and a padded port on most nodes.
		const x = topology.None
		adj := [][]int32{
			{1, 3, x},
			{2, x, x},
			{3, 5, x},
			{4, 0, x},
			{5, x, x},
			{6, x, x},
			{0, 2, x},
		}
		g, err := topology.NewGraph("digraph7", adj)
		if err != nil {
			t.Fatal(err)
		}
		if topology.Symmetric(g.FlatNeighbors(), g.Nodes(), g.Ports()) {
			t.Fatal("the one-way digraph reports symmetric")
		}
		checkGraph(t, g, adj)
	})
	for dims := 2; dims <= 5; dims++ {
		t.Run(fmt.Sprintf("shuffle:%d", dims), func(t *testing.T) {
			se := topology.NewShuffleExchange(dims)
			adj := make([][]int32, se.Nodes())
			for u := range adj {
				adj[u] = make([]int32, se.Ports())
				for p := range adj[u] {
					adj[u][p] = int32(se.Neighbor(u, p))
				}
			}
			checkGraphAdaptive(t, se, adj, refDistances(adj))
		})
	}
}

// FuzzGraphDistances builds small digraphs, one-way links included, from
// the input bytes and checks the BFS kernel and the route-table fill
// against the plain reference BFS: NewGraph fails exactly when the
// reference finds an unreachable pair (and names the first one);
// otherwise the distance table, the diameter and the full and lazy route
// tables equal the reference and the scan path. The same adjacency, with
// self-loops and duplicate links kept, also goes through the generic
// (non-Graph) topology path.
func FuzzGraphDistances(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 0})                                                          // directed 5-ring
	f.Add([]byte{4, 1, 1, 3, 2, 5, 3, 0, 4, 4, 5, 1, 0, 6})                                     // chords, a duplicate, a None
	f.Add([]byte{6, 2, 1, 4, 7, 2, 0, 8, 3, 5, 8, 4, 6, 0, 5, 7, 1, 6, 3, 8, 7, 0, 2, 0, 1, 8}) // 8 nodes, 3 ports
	f.Add([]byte{4, 1, 1, 2, 3, 0, 2, 3, 0, 1, 3})                                              // unreachable pairs
	f.Add([]byte{5, 3, 1, 2, 0, 4, 3})                                                          // mostly None
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%11
		ports := 1 + int(data[1])%4
		data = data[2:]
		raw := make([][]int32, n) // as drawn: self-loops and duplicates kept
		adj := make([][]int32, n) // simple: what NewGraph accepts
		for u := range raw {
			raw[u] = make([]int32, ports)
			adj[u] = make([]int32, ports)
			for p := range raw[u] {
				v := int32(topology.None)
				if i := u*ports + p; i < len(data) {
					if b := int(data[i]) % (n + 1); b < n {
						v = int32(b)
					}
				}
				raw[u][p], adj[u][p] = v, v
				if int(v) == u {
					adj[u][p] = topology.None
				}
				for _, w := range adj[u][:p] {
					if w == v {
						adj[u][p] = topology.None
					}
				}
			}
		}
		ref := refDistances(adj)
		g, err := topology.NewGraph("fuzz", adj)
		if s, v, unreachable := firstUnreachable(ref); unreachable {
			want := fmt.Sprintf("not strongly connected: no path %d -> %d", s, v)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("NewGraph(%v) = %v, want an error naming %q", adj, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewGraph(%v): %v", adj, err)
		}
		checkGraph(t, g, adj)
		rawRef := refDistances(raw)
		checkGraphAdaptive(t, flatTopology{raw, rawRef}, raw, rawRef)
	})
}
