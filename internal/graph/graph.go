// Package graph provides the weighted undirected graph substrate used by
// every other package in this module.
//
// Two implementations of the Graph interface exist: the in-memory CSR graph
// defined here (MemGraph) and the disk-resident paged store in
// internal/diskgraph. Algorithms such as FLoS only consume the interface, so
// they run unmodified on either backend — exactly the property the paper
// exploits when it moves from in-memory graphs to Neo4j-backed ones
// (Section 6.4).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node. Node identifiers are dense: a graph with n nodes
// uses identifiers 0..n-1. 32 bits comfortably covers the paper's largest
// graph (64 * 2^20 nodes).
type NodeID = int32

// DegreeEntry pairs a node with its weighted degree. Slices of DegreeEntry
// returned by TopDegrees are sorted by non-increasing degree.
type DegreeEntry struct {
	Node   NodeID
	Degree float64
}

// Graph is the read interface every proximity algorithm consumes.
//
// Neighbors returns the full adjacency of v: parallel slices of neighbor
// identifiers and edge weights. Implementations may reuse the returned
// slices on the next Neighbors call (the disk store serves them from a page
// cache); callers that need the data beyond the next call must copy it.
//
// Degree returns the weighted degree w_v = Σ_{u∈N_v} w_vu. It is a cheap
// metadata lookup on every implementation, mirroring the degree statistic a
// graph database maintains.
//
// TopDegrees returns up to k nodes with the largest weighted degrees, in
// non-increasing order. FLoS_RWR uses it to maintain w(S̄), the maximum
// degree among unvisited nodes (Section 5.6). Implementations may return
// fewer than k entries; the first entry, if any, carries the global maximum
// degree.
type Graph interface {
	// NumNodes returns the number of nodes n; valid identifiers are 0..n-1.
	NumNodes() int
	// NumEdges returns the number of undirected edges.
	NumEdges() int64
	// Neighbors returns the adjacency list of v.
	Neighbors(v NodeID) (nbrs []NodeID, weights []float64)
	// Degree returns the weighted degree of v.
	Degree(v NodeID) float64
	// TopDegrees returns up to k largest-degree nodes, non-increasing.
	TopDegrees(k int) []DegreeEntry
}

// StableNeighbors is the optional capability of graphs whose Neighbors
// slices stay valid (and immutable) for the life of the graph, rather than
// being served from a reusable scratch buffer or page cache. Consumers that
// would otherwise defensively copy adjacency — the FLoS engines copy two
// slices per visited node — may alias the returned slices directly when
// this capability reports true.
type StableNeighbors interface {
	// StableNeighbors reports that every slice returned by Neighbors
	// remains valid and unchanged until the graph itself is released.
	StableNeighbors() bool
}

// HasStableNeighbors reports whether g advertises the StableNeighbors
// capability.
func HasStableNeighbors(g Graph) bool {
	s, ok := g.(StableNeighbors)
	return ok && s.StableNeighbors()
}

// Snapshotter is the optional capability of graph backends whose topology
// can change between queries (livegraph.LiveGraph). AcquireSnapshot pins the
// current immutable point-in-time view and returns it together with a
// release function; the search engines pin one snapshot per query, so a
// whole search always sees a single consistent topology even while writers
// publish new snapshots concurrently. Release must be called exactly once
// when the query is done; it never blocks.
type Snapshotter interface {
	// AcquireSnapshot pins and returns the current immutable snapshot.
	AcquireSnapshot() (Graph, func())
}

// Viewer is the optional capability of graph backends that can hand out
// independent concurrent-safe read views sharing the underlying storage.
// A backend whose Graph handle is itself safe for concurrent readers (the
// immutable MemGraph) returns itself; backends with per-handle scratch
// state (the disk store) return a fresh handle. Concurrent query executors
// (core.Querier, qserve.Pool) take one view per worker; a backend without
// this capability is assumed non-concurrent-safe and gets serialized.
type Viewer interface {
	// NewView returns a read view safe for use by one more goroutine.
	NewView() Graph
}

// MemGraph is an immutable in-memory undirected graph in compressed sparse
// row (CSR) form. Both directions of every undirected edge are stored, so
// Neighbors(v) is a contiguous slice lookup.
type MemGraph struct {
	offsets []int64   // len n+1; adjacency of v is targets[offsets[v]:offsets[v+1]]
	targets []NodeID  // len 2m
	weights []float64 // len 2m, parallel to targets
	degrees []float64 // len n; cached weighted degrees
	top     []DegreeEntry
	nEdges  int64
}

var _ Graph = (*MemGraph)(nil)

// topDegreeCache is how many of the largest-degree nodes a MemGraph keeps
// pre-sorted for TopDegrees. FLoS_RWR only ever needs the first unvisited
// entry, and the visited set is tiny, so a short prefix suffices; if it is
// ever exhausted the global maximum (entry 0) is still a valid bound.
const topDegreeCache = 4096

// NumNodes returns the number of nodes.
func (g *MemGraph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *MemGraph) NumEdges() int64 { return g.nEdges }

// Neighbors returns the adjacency of v as subslices of the CSR arrays. The
// slices are immutable views; they stay valid for the life of the graph.
func (g *MemGraph) Neighbors(v NodeID) ([]NodeID, []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// StableNeighbors reports that Neighbors returns immutable CSR subslices,
// letting the search engines skip their defensive adjacency copies.
func (g *MemGraph) StableNeighbors() bool { return true }

// NewView returns g itself: an immutable MemGraph is safe for any number of
// concurrent readers.
func (g *MemGraph) NewView() Graph { return g }

// Degree returns the weighted degree of v.
func (g *MemGraph) Degree(v NodeID) float64 { return g.degrees[v] }

// NumNeighbors returns the unweighted degree (adjacency length) of v.
func (g *MemGraph) NumNeighbors(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// TopDegrees returns up to k largest-degree nodes in non-increasing order.
func (g *MemGraph) TopDegrees(k int) []DegreeEntry {
	if k > len(g.top) {
		k = len(g.top)
	}
	return g.top[:k]
}

// Offsets exposes the raw CSR offset array. It is used by the disk-store
// writer to serialize a MemGraph without an extra copy.
func (g *MemGraph) Offsets() []int64 { return g.offsets }

// Targets exposes the raw CSR target array; see Offsets.
func (g *MemGraph) Targets() []NodeID { return g.targets }

// Weights exposes the raw CSR weight array; see Offsets.
func (g *MemGraph) Weights() []float64 { return g.weights }

// buildTopDegrees computes the cached degree prefix.
func (g *MemGraph) buildTopDegrees() {
	g.top = TopDegreeIndex(g.degrees)
}

// ValidWeight reports whether w is usable as an edge weight: positive and
// finite. NaN fails the comparison, so it is rejected too. Builder (and the
// edge-list reader through it), DynamicGraph, Validate and the live graph's
// mutation batches all check this one predicate.
func ValidWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

// DegreeBefore reports whether a precedes b in the canonical degree order:
// degree descending, node ascending. Node IDs break every tie, so the order
// is total and each (degree, node) key has exactly one position.
func DegreeBefore(a, b DegreeEntry) bool {
	if a.Degree != b.Degree {
		return a.Degree > b.Degree
	}
	return a.Node < b.Node
}

// DegreeOrder returns every node in the canonical degree order. It is
// O(n log n); the live graph builds it once and then keeps it current
// incrementally.
func DegreeOrder(degrees []float64) []DegreeEntry {
	entries := make([]DegreeEntry, len(degrees))
	for v, d := range degrees {
		entries[v] = DegreeEntry{Node: NodeID(v), Degree: d}
	}
	sort.Slice(entries, func(i, j int) bool { return DegreeBefore(entries[i], entries[j]) })
	return entries
}

// TopDegreeIndex computes the canonical pre-sorted degree prefix every graph
// implementation in this module serves TopDegrees from: DegreeOrder truncated
// to the standard cache length. MemGraph runs it once at construction and
// DynamicGraph after each mutation; live-graph snapshots serve the same
// prefix from an order their writer keeps current, and tests compare it
// against this function. Sharing one definition is what keeps TopDegrees —
// and with it the RWR w(S̄) guard and every downstream query result —
// byte-identical across all of them for the same degree vector.
func TopDegreeIndex(degrees []float64) []DegreeEntry {
	k := topDegreeCache
	if k > len(degrees) {
		k = len(degrees)
	}
	return append([]DegreeEntry(nil), DegreeOrder(degrees)[:k]...)
}

// Validate checks structural invariants: sorted offsets, in-range targets,
// positive finite weights, symmetric adjacency, no self loops. It is
// O(m log m) and intended for tests and data loading, not hot paths.
func (g *MemGraph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
	}
	if g.offsets[n] != int64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n]=%d != len(targets)=%d", g.offsets[n], len(g.targets))
	}
	type half struct {
		u, v NodeID
		w    float64
	}
	halves := make([]half, 0, len(g.targets))
	for v := 0; v < n; v++ {
		nbrs, ws := g.Neighbors(NodeID(v))
		var sum float64
		for i, u := range nbrs {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, u)
			}
			if u == NodeID(v) {
				return fmt.Errorf("graph: self loop at node %d", v)
			}
			if !ValidWeight(ws[i]) {
				return fmt.Errorf("graph: weight %g on edge (%d,%d) is not a positive finite number", ws[i], v, u)
			}
			sum += ws[i]
			halves = append(halves, half{NodeID(v), u, ws[i]})
		}
		if d := g.degrees[v]; !almostEqual(d, sum) {
			return fmt.Errorf("graph: cached degree %g != recomputed %g at node %d", d, sum, v)
		}
	}
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].u != halves[j].u {
			return halves[i].u < halves[j].u
		}
		return halves[i].v < halves[j].v
	})
	for _, h := range halves {
		j := sort.Search(len(halves), func(i int) bool {
			if halves[i].u != h.v {
				return halves[i].u >= h.v
			}
			return halves[i].v >= h.u
		})
		if j >= len(halves) || halves[j].u != h.v || halves[j].v != h.u || !almostEqual(halves[j].w, h.w) {
			return fmt.Errorf("graph: edge (%d,%d) has no symmetric counterpart", h.u, h.v)
		}
	}
	return nil
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if b > scale {
		scale = b
	} else if -b > scale {
		scale = -b
	}
	return d <= 1e-9*(1+scale)
}
