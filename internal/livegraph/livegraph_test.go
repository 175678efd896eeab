package livegraph

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
)

func baseGraph(t *testing.T) *graph.MemGraph {
	t.Helper()
	return graph.MustFromEdges(8,
		0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4)
}

func row(g graph.Graph, v graph.NodeID) ([]graph.NodeID, []float64) {
	n, w := g.Neighbors(v)
	return n, w
}

func TestBaseSnapshotAliasesMemGraph(t *testing.T) {
	base := baseGraph(t)
	lg := New(base)
	s := lg.Acquire()
	defer s.Release()

	if s.Epoch() != 1 {
		t.Fatalf("base epoch = %d, want 1", s.Epoch())
	}
	if s.NumNodes() != base.NumNodes() || s.NumEdges() != base.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", s.NumNodes(), s.NumEdges(), base.NumNodes(), base.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < base.NumNodes(); v++ {
		bn, bw := base.Neighbors(v)
		sn, sw := s.Neighbors(v)
		if len(bn) > 0 && (&bn[0] != &sn[0] || &bw[0] != &sw[0]) {
			t.Fatalf("node %d: base snapshot row is a copy, want alias", v)
		}
		if s.Degree(v) != base.Degree(v) {
			t.Fatalf("node %d: degree %g != %g", v, s.Degree(v), base.Degree(v))
		}
	}
}

func TestApplyCoWOnlyTouchedRows(t *testing.T) {
	lg := New(baseGraph(t))
	s1 := lg.Acquire()
	defer s1.Release()

	s2, touched, err := lg.Apply([]EdgeOp{{Op: OpAdd, U: 1, V: 5, W: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s2.Epoch())
	}
	if len(touched) != 2 || touched[0] != 1 || touched[1] != 5 {
		t.Fatalf("touched = %v, want [1 5]", touched)
	}
	// Untouched rows alias the parent snapshot.
	for _, v := range []graph.NodeID{0, 2, 3, 4, 6, 7} {
		n1, w1 := row(s1, v)
		n2, w2 := row(s2, v)
		if &n1[0] != &n2[0] || &w1[0] != &w2[0] {
			t.Fatalf("node %d: untouched row was copied", v)
		}
	}
	// Touched rows are fresh, sorted, and include the new edge.
	n2, w2 := row(s2, 1)
	n1, _ := row(s1, 1)
	if len(n2) != len(n1)+1 {
		t.Fatalf("node 1 row length %d, want %d", len(n2), len(n1)+1)
	}
	for i := 1; i < len(n2); i++ {
		if n2[i-1] >= n2[i] {
			t.Fatalf("node 1 row not sorted: %v", n2)
		}
	}
	found := false
	for i, u := range n2 {
		if u == 5 {
			found = true
			if w2[i] != 2.5 {
				t.Fatalf("edge (1,5) weight %g, want 2.5", w2[i])
			}
		}
	}
	if !found {
		t.Fatalf("edge (1,5) missing from %v", n2)
	}
	// Parent snapshot is untouched by the mutation.
	for i := 1; i < len(n1); i++ {
		if n1[i] == 5 {
			t.Fatal("parent snapshot gained the new edge")
		}
	}
	if s2.NumEdges() != s1.NumEdges()+1 {
		t.Fatalf("edge count %d, want %d", s2.NumEdges(), s1.NumEdges()+1)
	}
	if got, want := s2.Degree(1), s1.Degree(1)+2.5; got != want {
		t.Fatalf("degree(1) = %g, want %g", got, want)
	}
}

func TestApplyAtomicAbort(t *testing.T) {
	lg := New(baseGraph(t))
	before := lg.Stats()
	// Second op is invalid (edge exists); first op must not leak through.
	_, _, err := lg.Apply([]EdgeOp{
		{Op: OpAdd, U: 1, V: 5, W: 1},
		{Op: OpAdd, U: 0, V: 1, W: 1},
	})
	if err == nil {
		t.Fatal("expected error from invalid batch")
	}
	after := lg.Stats()
	if after != before {
		t.Fatalf("failed batch changed stats: %+v -> %+v", before, after)
	}
	s := lg.Acquire()
	defer s.Release()
	if s.Epoch() != 1 {
		t.Fatalf("failed batch published epoch %d", s.Epoch())
	}
	n, _ := row(s, 1)
	for _, u := range n {
		if u == 5 {
			t.Fatal("failed batch leaked edge (1,5)")
		}
	}
}

func TestRemoveAndSet(t *testing.T) {
	lg := New(baseGraph(t))
	s, _, err := lg.Apply([]EdgeOp{
		{Op: OpRemove, U: 0, V: 4},
		{Op: OpSet, U: 0, V: 1, W: 9},
		{Op: OpSet, U: 2, V: 6, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, w := row(s, 0)
	for _, u := range n {
		if u == 4 {
			t.Fatal("removed edge (0,4) still present")
		}
	}
	seen := false
	for i, u := range n {
		if u == 1 {
			seen = true
			if w[i] != 9 {
				t.Fatalf("set edge (0,1) weight %g, want 9", w[i])
			}
		}
	}
	if !seen {
		t.Fatal("edge (0,1) lost by OpSet")
	}
	// OpSet on an absent edge inserts it.
	n, _ = row(s, 2)
	found := false
	for _, u := range n {
		if u == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("OpSet did not insert absent edge (2,6)")
	}
	if err := mustValidate(s); err != nil {
		t.Fatal(err)
	}
}

// mustValidate materializes the snapshot and runs MemGraph.Validate, checking
// symmetry, sortedness, and degree consistency of the mutated topology.
func mustValidate(s *Snapshot) error {
	m, err := s.Materialize()
	if err != nil {
		return err
	}
	return m.Validate()
}

func TestMaterializeMatchesSnapshot(t *testing.T) {
	lg := New(baseGraph(t))
	s, _, err := lg.Apply([]EdgeOp{
		{Op: OpAdd, U: 1, V: 5, W: 2.5},
		{Op: OpRemove, U: 3, V: 4},
		{Op: OpSet, U: 6, V: 7, W: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != s.NumNodes() || m.NumEdges() != s.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", m.NumNodes(), m.NumEdges(), s.NumNodes(), s.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < s.NumNodes(); v++ {
		sn, sw := s.Neighbors(v)
		mn, mw := m.Neighbors(v)
		if len(sn) != len(mn) {
			t.Fatalf("node %d: row length %d vs %d", v, len(sn), len(mn))
		}
		for i := range sn {
			if sn[i] != mn[i] || sw[i] != mw[i] {
				t.Fatalf("node %d: row differs at %d", v, i)
			}
		}
		if s.Degree(v) != m.Degree(v) {
			t.Fatalf("node %d: degree %v vs %v", v, s.Degree(v), m.Degree(v))
		}
	}
	// TopDegrees must be byte-identical to the rebuilt graph's index.
	st := s.TopDegrees(s.NumNodes())
	mt := m.TopDegrees(m.NumNodes())
	if len(st) != len(mt) {
		t.Fatalf("top-degree length %d vs %d", len(st), len(mt))
	}
	for i := range st {
		if st[i] != mt[i] {
			t.Fatalf("top-degree entry %d: %+v vs %+v", i, st[i], mt[i])
		}
	}
}

func TestAliveGaugeAndReclamation(t *testing.T) {
	lg := New(baseGraph(t))
	if got := lg.Stats().SnapshotsAlive; got != 1 {
		t.Fatalf("alive = %d, want 1", got)
	}
	s1 := lg.Acquire() // pin epoch 1
	if _, _, err := lg.Apply([]EdgeOp{{Op: OpAdd, U: 1, V: 5, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 is pinned by s1, epoch 2 is current: both alive.
	if got := lg.Stats().SnapshotsAlive; got != 2 {
		t.Fatalf("alive = %d, want 2 (one pinned, one current)", got)
	}
	s1.Release()
	if got := lg.Stats().SnapshotsAlive; got != 1 {
		t.Fatalf("alive after release = %d, want 1", got)
	}
	if got := lg.Stats().SnapshotsTotal; got != 2 {
		t.Fatalf("total = %d, want 2", got)
	}
}

func TestConcurrentPinnedReadsUnderWrites(t *testing.T) {
	lg := New(baseGraph(t))
	const writers = 2
	const readers = 6
	stop := make(chan struct{})
	var wgW, wgR sync.WaitGroup

	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(id int) {
			defer wgW.Done()
			// Each writer toggles its own private edge so batches never
			// conflict logically; Apply serializes them anyway.
			u := graph.NodeID(id)
			v := graph.NodeID(id + 4)
			present := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var ops []EdgeOp
				if present {
					ops = []EdgeOp{{Op: OpRemove, U: u, V: v}}
				} else {
					ops = []EdgeOp{{Op: OpSet, U: u, V: v, W: 1 + float64(i%7)}}
				}
				if _, _, err := lg.Apply(ops); err != nil {
					// The edge may pre-exist in the base; flip state and retry.
					present = !present
					continue
				}
				present = !present
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			for i := 0; i < 300; i++ {
				s := lg.Acquire()
				// A pinned snapshot must be internally consistent: every
				// row sorted, every degree equal to its row sum, symmetric.
				for v := graph.NodeID(0); int(v) < s.NumNodes(); v++ {
					nbrs, ws := s.Neighbors(v)
					var sum float64
					for j, u := range nbrs {
						if j > 0 && nbrs[j-1] >= u {
							t.Errorf("epoch %d node %d: unsorted row", s.Epoch(), v)
							s.Release()
							return
						}
						sum += ws[j]
					}
					if d := s.Degree(v); d != sum {
						t.Errorf("epoch %d node %d: degree %g != row sum %g", s.Epoch(), v, d, sum)
						s.Release()
						return
					}
				}
				s.Release()
			}
		}()
	}
	// Readers run a bounded workload; once they drain, stop the writers.
	wgR.Wait()
	close(stop)
	wgW.Wait()

	if lg.Stats().SnapshotsAlive != 1 {
		t.Fatalf("alive = %d after all releases, want 1", lg.Stats().SnapshotsAlive)
	}
}

func TestApplyRejectsNonFiniteWeights(t *testing.T) {
	cases := []struct {
		name string
		ops  []EdgeOp
	}{
		{"add NaN", []EdgeOp{{Op: OpAdd, U: 1, V: 5, W: math.NaN()}}},
		{"set NaN", []EdgeOp{{Op: OpSet, U: 0, V: 1, W: math.NaN()}}},
		{"add +Inf", []EdgeOp{{Op: OpAdd, U: 1, V: 5, W: math.Inf(1)}}},
		{"set +Inf", []EdgeOp{{Op: OpSet, U: 0, V: 1, W: math.Inf(1)}}},
		{"add zero", []EdgeOp{{Op: OpAdd, U: 1, V: 5, W: 0}}},
		{"set negative", []EdgeOp{{Op: OpSet, U: 0, V: 1, W: -1}}},
		// Each weight is finite, but node 0's degree sum overflows.
		{"degree overflow", []EdgeOp{
			{Op: OpSet, U: 0, V: 1, W: math.MaxFloat64},
			{Op: OpSet, U: 0, V: 7, W: math.MaxFloat64},
		}},
	}
	lg := New(baseGraph(t))
	before := lg.Stats()
	for _, c := range cases {
		// A valid op ahead of the bad one must not leak through either.
		ops := append([]EdgeOp{{Op: OpAdd, U: 2, V: 6, W: 1}}, c.ops...)
		if _, _, err := lg.Apply(ops); err == nil {
			t.Fatalf("%s: batch accepted", c.name)
		}
		if after := lg.Stats(); after != before {
			t.Fatalf("%s: failed batch changed stats: %+v -> %+v", c.name, before, after)
		}
	}
	// The writer's degree order survived the aborts intact.
	s, _, err := lg.Apply([]EdgeOp{{Op: OpSet, U: 0, V: 1, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d after aborted batches and one valid one, want 2", s.Epoch())
	}
	checkDegreeIndex(t, lg, s)
}

// checkDegreeIndex asserts that s's published TopDegrees prefix equals both
// graph.TopDegreeIndex over its degrees and a from-scratch rebuild's index,
// entry for entry, and that the writer's full order is the canonical sort.
// s must be lg's current snapshot and the caller its only writer.
func checkDegreeIndex(t *testing.T, lg *LiveGraph, s *Snapshot) {
	t.Helper()
	n := s.NumNodes()
	got := s.TopDegrees(n)
	want := graph.TopDegreeIndex(s.degs)
	m, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := m.TopDegrees(n)
	if len(got) != len(want) || len(got) != len(rebuilt) {
		t.Fatalf("epoch %d: prefix lengths %d, %d (TopDegreeIndex), %d (rebuild)", s.Epoch(), len(got), len(want), len(rebuilt))
	}
	for i := range got {
		if got[i] != want[i] || got[i] != rebuilt[i] {
			t.Fatalf("epoch %d: entry %d is %+v, TopDegreeIndex %+v, rebuild %+v", s.Epoch(), i, got[i], want[i], rebuilt[i])
		}
	}
	lg.wmu.Lock()
	defer lg.wmu.Unlock()
	if lg.order == nil {
		return
	}
	full := graph.DegreeOrder(s.degs)
	for i := range full {
		if lg.order[i] != full[i] {
			t.Fatalf("epoch %d: writer order entry %d is %+v, want %+v", s.Epoch(), i, lg.order[i], full[i])
		}
	}
}

// randomBatch draws 1-8 valid ops against s: adds, removes and sets, with
// weights either 1 (keeping degrees tied) or tiny (0.001-0.01, breaking ties
// by a hair). No two ops of a batch share an edge, so every op is valid.
func randomBatch(rng *rand.Rand, s *Snapshot) []EdgeOp {
	n := s.NumNodes()
	weight := func() float64 {
		if rng.Intn(2) == 0 {
			return 1
		}
		return 0.001 + 0.009*rng.Float64()
	}
	used := make(map[[2]graph.NodeID]bool)
	var ops []EdgeOp
	for len(ops) < 1+rng.Intn(8) {
		u := graph.NodeID(rng.Intn(n))
		nbrs, _ := s.Neighbors(u)
		var op EdgeOp
		switch r := rng.Intn(3); {
		case r == 0 || len(nbrs) == 0:
			v := graph.NodeID(rng.Intn(n))
			op = EdgeOp{Op: OpSet, U: u, V: v, W: weight()}
			if i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v }); i == len(nbrs) || nbrs[i] != v {
				op.Op = OpAdd
			}
		case r == 1:
			op = EdgeOp{Op: OpRemove, U: u, V: nbrs[rng.Intn(len(nbrs))]}
		default:
			op = EdgeOp{Op: OpSet, U: u, V: nbrs[rng.Intn(len(nbrs))], W: weight()}
		}
		key := [2]graph.NodeID{min(op.U, op.V), max(op.U, op.V)}
		if op.U == op.V || used[key] {
			continue
		}
		used[key] = true
		ops = append(ops, op)
	}
	return ops
}

// TestDegreeIndexDifferential drives random batches over a graph larger than
// the 4096-entry prefix, with unit weights that tie most degrees, so nodes
// keep entering and leaving the prefix. After every batch the published
// prefix must match a full re-sort and a rebuild, while a concurrent reader
// checks every pinned prefix against its own snapshot's degrees.
func TestDegreeIndexDifferential(t *testing.T) {
	base, err := gen.Erdos(5000, 10000, 7)
	if err != nil {
		t.Fatal(err)
	}
	n := base.NumNodes()
	lg := New(base)
	batches := 200
	if testing.Short() {
		batches = 80
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := lg.Acquire()
			top := s.TopDegrees(n)
			for i, e := range top {
				if e.Degree != s.Degree(e.Node) || (i > 0 && !graph.DegreeBefore(top[i-1], e)) {
					t.Errorf("epoch %d: prefix entry %d %+v inconsistent with the snapshot", s.Epoch(), i, e)
					s.Release()
					return
				}
			}
			s.Release()
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	rng := rand.New(rand.NewSource(1))
	crossings := 0
	prev := lg.Acquire()
	defer func() { prev.Release() }()
	for b := 0; b < batches; b++ {
		s, _, err := lg.Apply(randomBatch(rng, prev))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkDegreeIndex(t, lg, s)
		inPrefix := make(map[graph.NodeID]bool, len(s.top))
		for _, e := range s.top {
			inPrefix[e.Node] = true
		}
		for _, e := range prev.top {
			if !inPrefix[e.Node] {
				crossings++
			}
		}
		s.retain()
		prev.Release()
		prev = s
	}
	if crossings == 0 {
		t.Fatal("no node ever left the prefix; the test does not cover the boundary")
	}
}

func TestTopPrefixSharedUntilMoved(t *testing.T) {
	// On a 5000-node path, nodes 1..4096 (degree 2) fill the prefix.
	lg := New(gen.Path(5000))
	s1 := lg.Acquire()
	defer s1.Release()
	want1 := append([]graph.DegreeEntry(nil), s1.TopDegrees(5000)...)

	// Lowering two degrees far below the prefix leaves it unchanged: shared.
	s2, _, err := lg.Apply([]EdgeOp{{Op: OpSet, U: 4500, V: 4501, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	checkDegreeIndex(t, lg, s2)
	if &s2.top[0] != &s1.top[0] {
		t.Fatal("prefix copied although no touched node was in it or entered it")
	}

	// Lowering prefix nodes 10 and 11 pushes them out and pulls 4097, 4098 in.
	s3, _, err := lg.Apply([]EdgeOp{{Op: OpSet, U: 10, V: 11, W: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	checkDegreeIndex(t, lg, s3)
	if &s3.top[0] == &s2.top[0] {
		t.Fatal("prefix shared although touched nodes left it")
	}
	if last := s3.top[len(s3.top)-1].Node; last != 4098 {
		t.Fatalf("last prefix node %d, want 4098", last)
	}
	// Published prefixes never change under later batches.
	for i, e := range s1.TopDegrees(5000) {
		if e != want1[i] {
			t.Fatalf("epoch 1 prefix entry %d changed to %+v, want %+v", i, e, want1[i])
		}
	}
}

func TestTopDegreesAfterApplyAllocatesNothing(t *testing.T) {
	const runs = 10
	lg := New(gen.Path(5000))
	// One fresh snapshot per call (plus AllocsPerRun's warm-up), so every
	// call is the first on its snapshot.
	snaps := make([]*Snapshot, runs+1)
	for i := range snaps {
		s, _, err := lg.Apply([]EdgeOp{{Op: OpSet, U: 1, V: 2, W: float64(i + 2)}})
		if err != nil {
			t.Fatal(err)
		}
		s.retain()
		defer s.Release()
		snaps[i] = s
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		_ = snaps[next].TopDegrees(4096)
		next++
	})
	if allocs != 0 {
		t.Fatalf("TopDegrees on a fresh snapshot allocated %v times, want 0", allocs)
	}
}
