package graph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph is an 8-node unit-weight fixture: edges
// 1-2, 1-3, 2-3, 3-4, 4-5, 4-6, 4-7, 5-6, 7-8 (renumbered to 0-based).
func paperGraph(t testing.TB) *MemGraph {
	t.Helper()
	g, err := FromEdges(8,
		0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 3, 5, 3, 6, 4, 5, 6, 7)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := paperGraph(t)
	if got := g.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got := g.NumEdges(); got != 9 {
		t.Fatalf("NumEdges = %d, want 9", got)
	}
	nbrs, ws := g.Neighbors(3)
	if len(nbrs) != 4 {
		t.Fatalf("node 3 neighbors = %v, want 4 of them", nbrs)
	}
	wantN := []NodeID{2, 4, 5, 6}
	if !reflect.DeepEqual(nbrs, wantN) {
		t.Errorf("node 3 neighbors = %v, want %v", nbrs, wantN)
	}
	for _, w := range ws {
		if w != 1 {
			t.Errorf("unit graph has weight %g", w)
		}
	}
	if d := g.Degree(3); d != 4 {
		t.Errorf("Degree(3) = %g, want 4", d)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]NodeID{{0, 1}, {1, 0}, {0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after merging", g.NumEdges())
	}
	_, ws := g.Neighbors(0)
	if len(ws) != 1 || ws[0] != 6 {
		t.Fatalf("merged weight = %v, want [6]", ws)
	}
	if d := g.Degree(1); d != 8 {
		t.Fatalf("Degree(1) = %g, want 8", d)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(0, 4, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 2, 1); err == nil {
		t.Error("negative id accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := b.AddEdge(0, 1, -0.5); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestGrowingBuilder(t *testing.T) {
	b := NewGrowingBuilder()
	if err := b.AddUnitEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestTopDegrees(t *testing.T) {
	// Star: center 0 with 5 leaves, plus an extra edge between leaves 1-2.
	g := MustFromEdges(6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2)
	top := g.TopDegrees(3)
	if len(top) != 3 {
		t.Fatalf("TopDegrees(3) returned %d entries", len(top))
	}
	if top[0].Node != 0 || top[0].Degree != 5 {
		t.Errorf("top[0] = %+v, want node 0 degree 5", top[0])
	}
	if top[1].Degree != 2 || top[2].Degree != 2 {
		t.Errorf("next entries = %+v, want degree-2 nodes", top[1:])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Degree > top[i-1].Degree {
			t.Errorf("TopDegrees not sorted at %d", i)
		}
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	g := paperGraph(t)
	g2, err := FromCSR(g.Offsets(), g.Targets(), g.Weights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(NodeID(v)) != g2.Degree(NodeID(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestEdgeListParsesWeightsAndComments(t *testing.T) {
	in := "# comment\n% other comment\n0 1 2.5\n\n1 2\n2 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (self loop dropped)", g.NumEdges())
	}
	_, ws := g.Neighbors(0)
	if ws[0] != 2.5 {
		t.Fatalf("weight = %g, want 2.5", ws[0])
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 x\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(t, 200, 600, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStats(t *testing.T) {
	g := paperGraph(t)
	s := ComputeStats(g)
	if s.Nodes != 8 || s.Edges != 9 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 || s.LargestComp != 8 {
		t.Errorf("components = %d largest = %d, want 1/8", s.Components, s.LargestComp)
	}
	if s.MaxDegree != 4 || s.MinDegree != 1 {
		t.Errorf("degree range = [%g,%g], want [1,4]", s.MinDegree, s.MaxDegree)
	}
	if s.Density != 2.25 {
		t.Errorf("density = %g, want 2.25", s.Density)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestStatsDisconnected(t *testing.T) {
	g := MustFromEdges(5, 0, 1, 2, 3) // node 4 isolated
	s := ComputeStats(g)
	if s.Components != 3 {
		t.Errorf("components = %d, want 3", s.Components)
	}
	if s.Isolated != 1 {
		t.Errorf("isolated = %d, want 1", s.Isolated)
	}
	if s.LargestComp != 2 {
		t.Errorf("largest = %d, want 2", s.LargestComp)
	}
}

func TestBFSDistances(t *testing.T) {
	g := paperGraph(t)
	dist := BFSDistances(g, 0, -1)
	want := []int32{0, 1, 1, 2, 3, 3, 3, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
	capped := BFSDistances(g, 0, 2)
	for v, d := range capped {
		if want[v] <= 2 && d != want[v] {
			t.Errorf("capped dist[%d] = %d, want %d", v, d, want[v])
		}
		if want[v] > 2 && d != -1 {
			t.Errorf("capped dist[%d] = %d, want -1", v, d)
		}
	}
}

func TestBFSRegionAndKHop(t *testing.T) {
	g := paperGraph(t)
	region := BFSRegion(g, 0, 4)
	if len(region) < 4 || region[0] != 0 {
		t.Fatalf("region = %v", region)
	}
	hood := KHopNeighborhood(g, 0, 2)
	want := map[NodeID]bool{0: true, 1: true, 2: true, 3: true}
	if len(hood) != len(want) {
		t.Fatalf("2-hop hood = %v", hood)
	}
	for _, v := range hood {
		if !want[v] {
			t.Errorf("unexpected node %d in 2-hop hood", v)
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := paperGraph(t)
	sg, back, err := Subgraph(g, []NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumNodes() != 4 {
		t.Fatalf("subgraph nodes = %d", sg.NumNodes())
	}
	// Induced edges among {0,1,2,3}: 0-1, 0-2, 1-2, 2-3.
	if sg.NumEdges() != 4 {
		t.Fatalf("subgraph edges = %d, want 4", sg.NumEdges())
	}
	if !reflect.DeepEqual(back, []NodeID{0, 1, 2, 3}) {
		t.Fatalf("back map = %v", back)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargestComponentNodes(t *testing.T) {
	g := MustFromEdges(7, 0, 1, 1, 2, 3, 4) // comps {0,1,2}, {3,4}, {5}, {6}
	lc := LargestComponentNodes(g)
	sort.Slice(lc, func(i, j int) bool { return lc[i] < lc[j] })
	if !reflect.DeepEqual(lc, []NodeID{0, 1, 2}) {
		t.Fatalf("largest component = %v", lc)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := MustFromEdges(6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5)
	h := DegreeHistogram(g)
	// Center has 5 neighbors (bucket 2), leaves have 1 (bucket 0).
	if h[0] != 5 {
		t.Errorf("bucket0 = %d, want 5", h[0])
	}
	if h[2] != 1 {
		t.Errorf("bucket2 = %d, want 1", h[2])
	}
}

// randomGraph builds a connected-ish random graph for property tests: a ring
// ensuring connectivity plus extra random chords with random weights.
func randomGraph(t testing.TB, n, extra int, seed int64) *MemGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if err := b.AddEdge(NodeID(v), NodeID((v+1)%n), 1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertSameGraph(t *testing.T, a, b *MemGraph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		an, aw := a.Neighbors(NodeID(v))
		bn, bw := b.Neighbors(NodeID(v))
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("node %d neighbors differ: %v vs %v", v, an, bn)
		}
		for i := range aw {
			if diff := aw[i] - bw[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("node %d weight %d differs: %g vs %g", v, i, aw[i], bw[i])
			}
		}
	}
}

// TestPropertyDegreeIsNeighborSum: for arbitrary built graphs the cached
// degree equals the sum of incident weights.
func TestPropertyDegreeIsNeighborSum(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 50, 100, seed)
		for v := 0; v < g.NumNodes(); v++ {
			_, ws := g.Neighbors(NodeID(v))
			var sum float64
			for _, w := range ws {
				sum += w
			}
			d := g.Degree(NodeID(v))
			if diff := d - sum; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBinaryRoundTrip: serialization is lossless for arbitrary
// random graphs.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 30, 60, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if g.NumNodes() != g2.NumNodes() || g.NumEdges() != g2.NumEdges() {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(NodeID(v)) != g2.Degree(NodeID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySymmetry: Validate passes (symmetry holds) for arbitrary
// builder outputs.
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 40, 80, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestValidWeightSharedByEntryPoints(t *testing.T) {
	for _, w := range []float64{1, 0.001, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if !ValidWeight(w) {
			t.Errorf("ValidWeight(%g) = false, want true", w)
		}
	}
	for _, w := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ValidWeight(w) {
			t.Errorf("ValidWeight(%g) = true, want false", w)
		}
		if err := NewBuilder(2).AddEdge(0, 1, w); err == nil {
			t.Errorf("Builder.AddEdge accepted weight %g", w)
		}
		if err := NewDynamicGraph(MustFromEdges(3, 0, 1)).AddEdge(1, 2, w); err == nil {
			t.Errorf("DynamicGraph.AddEdge accepted weight %g", w)
		}
	}
}

func TestDegreeOrderPrefixIsTopDegreeIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	degs := make([]float64, 5000)
	for v := range degs {
		degs[v] = float64(rng.Intn(4)) // heavy ties: node IDs decide
	}
	full := DegreeOrder(degs)
	for i := 1; i < len(full); i++ {
		if !DegreeBefore(full[i-1], full[i]) {
			t.Fatalf("entries %d, %d out of order: %+v, %+v", i-1, i, full[i-1], full[i])
		}
	}
	top := TopDegreeIndex(degs)
	if len(top) != topDegreeCache {
		t.Fatalf("prefix length %d, want %d", len(top), topDegreeCache)
	}
	for i, e := range top {
		if e != full[i] {
			t.Fatalf("prefix entry %d is %+v, full order has %+v", i, e, full[i])
		}
	}
}
