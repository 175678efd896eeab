package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Builder accumulates undirected edges and produces an immutable MemGraph.
// Duplicate edges are merged by summing their weights; self loops are
// rejected at Add time. Builders are not safe for concurrent use.
type Builder struct {
	n     int
	us    []NodeID
	vs    []NodeID
	ws    []float64
	fixed bool // n was given up front; Add may not grow it
}

// NewBuilder returns a Builder for a graph with exactly n nodes
// (identifiers 0..n-1). Adding an edge outside that range is an error.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, fixed: true}
}

// NewGrowingBuilder returns a Builder whose node count is the largest
// identifier seen plus one. Convenient for loading edge lists whose node
// count is not known in advance.
func NewGrowingBuilder() *Builder { return &Builder{} }

// AddEdge records the undirected edge {u, v} with the given positive weight.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id in edge (%d,%d)", u, v)
	}
	if !ValidWeight(w) {
		return fmt.Errorf("graph: weight %g on edge (%d,%d) is not a positive finite number", w, u, v)
	}
	if b.fixed {
		if int(u) >= b.n || int(v) >= b.n {
			return fmt.Errorf("graph: edge (%d,%d) outside fixed node range [0,%d)", u, v, b.n)
		}
	} else {
		if int(u) >= b.n {
			b.n = int(u) + 1
		}
		if int(v) >= b.n {
			b.n = int(v) + 1
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	return nil
}

// AddUnitEdge records the undirected edge {u, v} with weight 1.
func (b *Builder) AddUnitEdge(u, v NodeID) error { return b.AddEdge(u, v, 1) }

// NumPendingEdges returns how many (possibly duplicate) edges have been
// added so far.
func (b *Builder) NumPendingEdges() int { return len(b.us) }

// Build produces the immutable CSR graph. Duplicate edges are merged by
// summing weights. Build may be called once; the builder must be discarded
// afterwards.
func (b *Builder) Build() (*MemGraph, error) {
	if b.n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	n := b.n
	m := len(b.us)

	// Merge duplicate undirected edges in canonical (min, max) orientation
	// FIRST, then emit both half edges from the single merged weight.
	// Merging per direction instead would sum the duplicates in two
	// different orders and could leave the two halves differing in the last
	// ulp — an asymmetry that propagates into transition probabilities.
	type fullEdge struct {
		u, v NodeID
		w    float64
	}
	edges := make([]fullEdge, 0, m)
	for i := 0; i < m; i++ {
		u, v := b.us[i], b.vs[i]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, fullEdge{u, v, b.ws[i]})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	merged := edges[:0]
	for _, e := range edges {
		if k := len(merged); k > 0 && merged[k-1].u == e.u && merged[k-1].v == e.v {
			merged[k-1].w += e.w
			if math.IsInf(merged[k-1].w, 1) {
				return nil, fmt.Errorf("graph: summed weight of edge (%d,%d) overflows", e.u, e.v)
			}
		} else {
			merged = append(merged, e)
		}
	}

	type halfEdge struct {
		src, dst NodeID
		w        float64
	}
	halves := make([]halfEdge, 0, 2*len(merged))
	for _, e := range merged {
		halves = append(halves,
			halfEdge{e.u, e.v, e.w},
			halfEdge{e.v, e.u, e.w})
	}
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].src != halves[j].src {
			return halves[i].src < halves[j].src
		}
		return halves[i].dst < halves[j].dst
	})

	g := &MemGraph{
		offsets: make([]int64, n+1),
		targets: make([]NodeID, len(halves)),
		weights: make([]float64, len(halves)),
		degrees: make([]float64, n),
		nEdges:  int64(len(halves)) / 2,
	}
	for i, h := range halves {
		g.offsets[h.src+1]++
		g.targets[i] = h.dst
		g.weights[i] = h.w
		g.degrees[h.src] += h.w
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
		if math.IsInf(g.degrees[v], 1) {
			return nil, fmt.Errorf("graph: weighted degree of node %d overflows", v)
		}
	}
	g.buildTopDegrees()
	return g, nil
}

// FromCSR wraps pre-built CSR arrays in a MemGraph. The arrays are adopted,
// not copied; the caller must not modify them afterwards. degrees may be nil,
// in which case it is computed. The adjacency must already contain both
// half edges of every undirected edge.
func FromCSR(offsets []int64, targets []NodeID, weights []float64, degrees []float64) (*MemGraph, error) {
	if len(offsets) < 2 {
		return nil, errors.New("graph: FromCSR needs at least one node")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, errors.New("graph: FromCSR offsets must start at 0")
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: FromCSR offsets not monotone at node %d", v)
		}
	}
	if int64(len(targets)) != offsets[n] || len(weights) != len(targets) {
		return nil, errors.New("graph: FromCSR array lengths disagree with offsets")
	}
	for i, t := range targets {
		if t < 0 || int(t) >= n {
			return nil, fmt.Errorf("graph: FromCSR target %d out of range at entry %d", t, i)
		}
	}
	if degrees == nil {
		degrees = make([]float64, n)
		for v := 0; v < n; v++ {
			for i := offsets[v]; i < offsets[v+1]; i++ {
				degrees[v] += weights[i]
			}
		}
	}
	g := &MemGraph{
		offsets: offsets,
		targets: targets,
		weights: weights,
		degrees: degrees,
		nEdges:  offsets[n] / 2,
	}
	g.buildTopDegrees()
	return g, nil
}

// FromEdges builds a unit-weight graph with n nodes from a flat list of
// node pairs: pairs[2i], pairs[2i+1] is the i-th edge. It exists for
// concise test fixtures.
func FromEdges(n int, pairs ...NodeID) (*MemGraph, error) {
	if len(pairs)%2 != 0 {
		return nil, errors.New("graph: FromEdges needs an even number of endpoints")
	}
	b := NewBuilder(n)
	for i := 0; i < len(pairs); i += 2 {
		if err := b.AddUnitEdge(pairs[i], pairs[i+1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error; for test fixtures.
func MustFromEdges(n int, pairs ...NodeID) *MemGraph {
	g, err := FromEdges(n, pairs...)
	if err != nil {
		panic(err)
	}
	return g
}
