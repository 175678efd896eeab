package graph

import (
	"fmt"
	"sort"
	"sync"
)

// DynamicGraph is a mutable overlay over an immutable base graph: edges can
// be added and removed without rebuilding the CSR arrays. It implements
// Graph, so every query algorithm runs on it unchanged.
//
// It exists to exercise the paper's core motivation: precompute-based
// methods (K-dash's factorization, LS clustering, GE embeddings) are
// invalidated by any edge change and "the precomputing step needs to be
// repeated whenever the graph changes" (§1), while FLoS reads the current
// topology at query time and needs nothing rebuilt. The ablation benchmarks
// measure exactly that contrast.
//
// Neighbors allocates when v's adjacency is modified (merging base and
// overlay); untouched nodes are served zero-copy from the base. Not safe
// for concurrent mutation; concurrent reads between mutations are safe —
// merged adjacency is materialized into fresh per-call slices (never shared
// scratch) and the lazy TopDegrees rebuild is mutex-guarded.
type DynamicGraph struct {
	base *MemGraph

	// added[v] lists overlay edges incident to v (both directions kept).
	added map[NodeID][]halfEdge
	// removed marks base edges deleted from the view.
	removed map[edgeKey]bool
	// degDelta accumulates weighted-degree changes per node.
	degDelta map[NodeID]float64

	edgeDelta int64

	// topMu guards the lazy topCache rebuild: TopDegrees is a read in the
	// Graph contract, so concurrent readers must not race on the rebuild.
	topMu    sync.Mutex
	topDirty bool
	topCache []DegreeEntry
}

type halfEdge struct {
	to NodeID
	w  float64
}

type edgeKey struct{ a, b NodeID }

func keyOf(u, v NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

var _ Graph = (*DynamicGraph)(nil)

// NewDynamicGraph wraps base. The base must not be modified afterwards.
func NewDynamicGraph(base *MemGraph) *DynamicGraph {
	return &DynamicGraph{
		base:     base,
		added:    map[NodeID][]halfEdge{},
		removed:  map[edgeKey]bool{},
		degDelta: map[NodeID]float64{},
		topDirty: false,
	}
}

// NumNodes returns the (fixed) node count.
func (g *DynamicGraph) NumNodes() int { return g.base.NumNodes() }

// NumEdges returns the current undirected edge count.
func (g *DynamicGraph) NumEdges() int64 { return g.base.NumEdges() + g.edgeDelta }

// baseEdgeWeight returns the base weight of {u,v}, 0 if absent.
func (g *DynamicGraph) baseEdgeWeight(u, v NodeID) float64 {
	nbrs, ws := g.base.Neighbors(u)
	// CSR rows are sorted by target; binary search.
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return ws[i]
	}
	return 0
}

// HasEdge reports whether {u,v} exists in the current view. The overlay is
// consulted first: a re-added edge can coexist with a `removed` mask that
// only hides the base copy.
func (g *DynamicGraph) HasEdge(u, v NodeID) bool {
	for _, h := range g.added[u] {
		if h.to == v {
			return true
		}
	}
	if g.removed[keyOf(u, v)] {
		return false
	}
	return g.baseEdgeWeight(u, v) > 0
}

// AddEdge inserts the undirected edge {u,v} with the given weight. Adding
// an edge that already exists is an error (use RemoveEdge first to change a
// weight).
func (g *DynamicGraph) AddEdge(u, v NodeID, w float64) error {
	n := NodeID(g.NumNodes())
	if u == v || u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("graph: invalid edge (%d,%d)", u, v)
	}
	if !ValidWeight(w) {
		return fmt.Errorf("graph: weight %g is not a positive finite number", w)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: edge (%d,%d) already exists", u, v)
	}
	k := keyOf(u, v)
	if g.removed[k] {
		// Re-adding a removed base edge with a possibly different weight:
		// keep it in the overlay, leave the base copy masked.
		delete(g.removed, k)
		bw := g.baseEdgeWeight(u, v)
		if bw == w {
			g.degDelta[u] += w
			g.degDelta[v] += w
			g.edgeDelta++
			g.topDirty = true
			return nil
		}
		g.removed[k] = true // keep masking the base copy
	}
	g.added[u] = append(g.added[u], halfEdge{to: v, w: w})
	g.added[v] = append(g.added[v], halfEdge{to: u, w: w})
	g.degDelta[u] += w
	g.degDelta[v] += w
	g.edgeDelta++
	g.topDirty = true
	return nil
}

// RemoveEdge deletes the undirected edge {u,v} from the view.
func (g *DynamicGraph) RemoveEdge(u, v NodeID) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: edge (%d,%d) does not exist", u, v)
	}
	var w float64
	// Overlay copy?
	if hs, ok := g.added[u]; ok {
		for i, h := range hs {
			if h.to == v {
				w = h.w
				g.added[u] = append(hs[:i:i], hs[i+1:]...)
				break
			}
		}
	}
	if w > 0 {
		hs := g.added[v]
		for i, h := range hs {
			if h.to == u {
				g.added[v] = append(hs[:i:i], hs[i+1:]...)
				break
			}
		}
	} else {
		w = g.baseEdgeWeight(u, v)
		g.removed[keyOf(u, v)] = true
	}
	g.degDelta[u] -= w
	g.degDelta[v] -= w
	g.edgeDelta--
	g.topDirty = true
	return nil
}

// Degree returns the current weighted degree.
func (g *DynamicGraph) Degree(v NodeID) float64 {
	return g.base.Degree(v) + g.degDelta[v]
}

// Neighbors returns the current adjacency of v. If v's adjacency is
// unmodified the base slices are returned zero-copy; otherwise the merge is
// materialized into fresh slices owned by the caller. The merge never writes
// shared state, so concurrent readers of overlay-touched nodes are safe.
func (g *DynamicGraph) Neighbors(v NodeID) ([]NodeID, []float64) {
	baseN, baseW := g.base.Neighbors(v)
	extra := g.added[v]
	touched := len(extra) > 0
	if !touched {
		for _, u := range baseN {
			if g.removed[keyOf(v, u)] {
				touched = true
				break
			}
		}
	}
	if !touched {
		return baseN, baseW
	}
	nbrs := make([]NodeID, 0, len(baseN)+len(extra))
	ws := make([]float64, 0, len(baseN)+len(extra))
	for i, u := range baseN {
		if !g.removed[keyOf(v, u)] {
			nbrs = append(nbrs, u)
			ws = append(ws, baseW[i])
		}
	}
	for _, h := range extra {
		nbrs = append(nbrs, h.to)
		ws = append(ws, h.w)
	}
	return nbrs, ws
}

// TopDegrees recomputes the degree index lazily after mutations. The rebuild
// is mutex-guarded because this is a read in the Graph contract and may be
// called by many readers at once.
func (g *DynamicGraph) TopDegrees(k int) []DegreeEntry {
	g.topMu.Lock()
	if g.topCache == nil || g.topDirty {
		g.topDirty = false
		n := g.NumNodes()
		degs := make([]float64, n)
		for v := 0; v < n; v++ {
			degs[v] = g.Degree(NodeID(v))
		}
		g.topCache = TopDegreeIndex(degs)
	}
	top := g.topCache
	g.topMu.Unlock()
	if k > len(top) {
		k = len(top)
	}
	return top[:k]
}

// Freeze materializes the current view into a fresh immutable MemGraph.
func (g *DynamicGraph) Freeze() (*MemGraph, error) {
	b := NewBuilder(g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		nbrs, ws := g.Neighbors(NodeID(v))
		for i, u := range nbrs {
			if u > NodeID(v) {
				if err := b.AddEdge(NodeID(v), u, ws[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}
