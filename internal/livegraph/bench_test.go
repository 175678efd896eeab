package livegraph_test

import (
	"sync"
	"testing"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/harness"
	"flos/internal/livegraph"
	"flos/internal/measure"
)

var (
	azOnce  sync.Once
	azGraph *graph.MemGraph
	azErr   error
)

// azStandIn builds the AZ stand-in (community model, 41,857 nodes) that the
// end-to-end benchmark serves, once per test binary.
func azStandIn(b *testing.B) *graph.MemGraph {
	b.Helper()
	azOnce.Do(func() { azGraph, azErr = harness.RealStandIns(1.0 / 8)[0].Build() })
	if azErr != nil {
		b.Fatal(azErr)
	}
	return azGraph
}

// triangleEdges returns up to limit absent edges {q, w} that close a triangle
// q-u-w, with q spread over the graph: the shape of the end-to-end
// benchmark's live-rw mutations.
func triangleEdges(g *graph.MemGraph, limit int) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	n := g.NumNodes()
	for i := 0; len(out) < limit && i < n; i++ {
		q := graph.NodeID(i * 7919 % n)
		qn, _ := g.Neighbors(q)
		if len(qn) == 0 {
			continue
		}
		un, _ := g.Neighbors(qn[0])
		for _, w := range un {
			if w != q && !hasEdge(g, q, w) {
				out = append(out, [2]graph.NodeID{q, w})
				break
			}
		}
	}
	return out
}

func hasEdge(g graph.Graph, u, v graph.NodeID) bool {
	nbrs, _ := g.Neighbors(u)
	for _, x := range nbrs {
		if x == v {
			return true
		}
	}
	return false
}

// batch returns the i-th one-op batch of the sequence: even batches add a
// triangle-closing edge of small weight, odd ones remove it again.
func batch(edges [][2]graph.NodeID, i int) []livegraph.EdgeOp {
	e := edges[(i/2)%len(edges)]
	if i%2 == 0 {
		return []livegraph.EdgeOp{{Op: livegraph.OpAdd, U: e[0], V: e[1], W: 0.001 + 0.001*float64(i%9)}}
	}
	return []livegraph.EdgeOp{{Op: livegraph.OpRemove, U: e[0], V: e[1]}}
}

// BenchmarkApply measures the writer's cost of one mutation batch, including
// keeping the degree order current. The first batch, which builds the order,
// runs before the timer starts.
func BenchmarkApply(b *testing.B) {
	g := azStandIn(b)
	edges := triangleEdges(g, 256)
	lg := livegraph.New(g)
	for i := 0; i < 2; i++ {
		if _, _, err := lg.Apply(batch(edges, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lg.Apply(batch(edges, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstQueryAfterApply measures a reader's cost of the first exact
// RWR query on a freshly published snapshot, at the node the batch mutated.
// Only the query is timed.
func BenchmarkFirstQueryAfterApply(b *testing.B) {
	g := azStandIn(b)
	edges := triangleEdges(g, 256)
	lg := livegraph.New(g)
	opt := core.DefaultOptions(measure.RWR, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := batch(edges, i)
		s, _, err := lg.Apply(ops)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := core.TopK(s, ops[0].U, opt); err != nil {
			b.Fatal(err)
		}
	}
}
