package topology

import "fmt"

// csr is a compressed adjacency list: the neighbors of u are
// to[off[u]:off[u+1]]. Unlike the None-padded flat tables it bounds no
// degree, which the in-neighbor lists of an arbitrary digraph need (a node
// may have any number of in-links even though its out-links fit the port
// count).
type csr struct {
	off []int32
	to  []int32
}

func (c csr) row(u int32) []int32 { return c.to[c.off[u]:c.off[u+1]] }

// BFS is the one breadth-first-search kernel over a flat adjacency
// snapshot (the node-major, None-padded table of Flatten and
// Graph.FlatNeighbors). Searches are direction-optimizing (Beamer et al.,
// SC 2012): a level expands top-down, pushing the frontier's out-links,
// while the frontier is small, and bottom-up — every unvisited node scans
// its in-links for a frontier node and stops at the first — once
// len(frontier)*ports exceeds the unvisited count. On the low-diameter
// generated networks the middle level covers most of the graph, and there
// the bottom-up pass touches only a few links per node instead of every
// link of the frontier. Both directions label each node with its unique
// BFS level, so the distances do not depend on which ran.
//
// A BFS holds only the immutable adjacency; every search takes its scratch
// from the caller, so concurrent searches on one BFS are safe.
type BFS struct {
	n, ports int
	out, in  csr
}

// NewBFS indexes the flat adjacency nbr (n nodes, ports entries per node,
// None-padded) for searching. Self-loops are dropped: they never shorten a
// path.
func NewBFS(nbr []int32, n, ports int) *BFS {
	b := &BFS{n: n, ports: ports}
	b.out.off = make([]int32, n+1)
	b.in.off = make([]int32, n+1)
	links := 0
	for u := 0; u < n; u++ {
		for _, v := range nbr[u*ports : (u+1)*ports] {
			if v >= 0 && int(v) != u {
				links++
				b.in.off[v+1]++
			}
		}
		b.out.off[u+1] = int32(links)
	}
	for v := 0; v < n; v++ {
		b.in.off[v+1] += b.in.off[v]
	}
	b.out.to = make([]int32, links)
	b.in.to = make([]int32, links)
	fill := append([]int32(nil), b.in.off[:n]...)
	links = 0
	for u := 0; u < n; u++ {
		for _, v := range nbr[u*ports : (u+1)*ports] {
			if v >= 0 && int(v) != u {
				b.out.to[links] = v
				links++
				b.in.to[fill[v]] = int32(u)
				fill[v]++
			}
		}
	}
	return b
}

// From fills row (length n) with the distances from s to every node, -1
// where none is reachable. It returns s's eccentricity over the nodes
// reached and whether every node was. queue is scratch with capacity at
// least n.
func (b *BFS) From(s int, row []int16, queue []int32) (ecc int, all bool) {
	return b.search(s, row, queue, b.out, b.in)
}

// To fills row with the distances from every node to d — the search over
// reversed links — with From's results and scratch contract.
func (b *BFS) To(d int, row []int16, queue []int32) (ecc int, all bool) {
	return b.search(d, row, queue, b.in, b.out)
}

// search runs one direction-optimizing BFS from s, expanding along fwd
// top-down and probing bwd (fwd's transpose) bottom-up. Each level's nodes
// are appended to queue, so the frontier is always the queue's last level.
func (b *BFS) search(s int, row []int16, queue []int32, fwd, bwd csr) (ecc int, all bool) {
	for i := range row {
		row[i] = -1
	}
	row[s] = 0
	queue = append(queue[:0], int32(s))
	unvisited := b.n - 1
	level := int16(0)
	for lo := 0; lo < len(queue) && unvisited > 0; level++ {
		hi := len(queue)
		if (hi-lo)*b.ports > unvisited {
			for v, d := range row {
				if d >= 0 {
					continue
				}
				for _, w := range bwd.row(int32(v)) {
					if row[w] == level {
						row[v] = level + 1
						queue = append(queue, int32(v))
						break
					}
				}
			}
		} else {
			for _, u := range queue[lo:hi] {
				for _, v := range fwd.row(u) {
					if row[v] < 0 {
						row[v] = level + 1
						queue = append(queue, v)
					}
				}
			}
		}
		unvisited -= len(queue) - hi
		lo = hi
	}
	return int(row[queue[len(queue)-1]]), unvisited == 0
}

// AllPairs computes the source-major all-pairs distance table of a flat
// adjacency snapshot (dist[u*n+v] is the distance from u to v) and its
// diameter, one From search per source. It fails naming the first
// unreachable pair in (source, destination) order.
func AllPairs(nbr []int32, n, ports int) (dist []int16, diam int, err error) {
	b := NewBFS(nbr, n, ports)
	dist = make([]int16, n*n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		row := dist[s*n : (s+1)*n]
		ecc, all := b.From(s, row, queue)
		if !all {
			for v, d := range row {
				if d < 0 {
					return nil, 0, fmt.Errorf("no path %d -> %d", s, v)
				}
			}
		}
		diam = max(diam, ecc)
	}
	return dist, diam, nil
}

// Symmetric reports whether every link of the flat adjacency has a link
// back (self-loops count as their own reverse). Then the distance from u
// to v equals the distance from v to u, so a row of a source-major
// distance table doubles as the column toward its node.
func Symmetric(nbr []int32, n, ports int) bool {
	for u := 0; u < n; u++ {
		for _, v := range nbr[u*ports : (u+1)*ports] {
			if v < 0 || int(v) == u {
				continue
			}
			back := false
			for _, w := range nbr[int(v)*ports : int(v+1)*ports] {
				if int(w) == u {
					back = true
					break
				}
			}
			if !back {
				return false
			}
		}
	}
	return true
}
