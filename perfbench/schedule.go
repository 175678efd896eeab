package main

// Workloads and their seeded request schedules.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"flos"
)

// workload fixes one traffic mix. The offered rate and latency limit are
// also stated in the workload's "why" in BENCHMARK.json.
type workload struct {
	name      string
	store     bool    // serve the disk store behind a small page cache instead of -bin
	live      bool    // serve a live graph and send edge-mutation batches
	rate      float64 // open-loop read requests per second
	writeRate float64 // open-loop write batches per second (live only)
	sloMS     float64 // read latency limit for slo_ratio
	satRate   float64 // about the closed-loop read rate, to size the closed-loop phase
	// closedShare is the share of an untraced run's measured time given to
	// the closed loop. The slower workloads give the open loop more, so that
	// read_p99_ms is the median of three windows of at least 1000 reads.
	closedShare float64
}

var workloads = []workload{
	{name: "hot-read", rate: 800, sloMS: 5, satRate: 4500, closedShare: 1.0 / 3},
	{name: "cold-disk", store: true, rate: 100, sloMS: 10, satRate: 240, closedShare: 1.0 / 3},
	{name: "live-rw", live: true, rate: 130, writeRate: 30, sloMS: 5, satRate: 460, closedShare: 1.0 / 6},
}

// Workload shape constants.
const (
	pageCacheMiB  = 1    // -pagecache for cold-disk, well under the store size
	zipfS         = 1.2  // hot-key skew: about 85% result-cache hits at 8192 keys
	batchShare    = 0.05 // share of hot-read requests that are /v1/topk/batch
	batchSize     = 4
	largeEverySec = 7 * time.Second // cold-disk traced open loop: one large query per this much schedule time
	opsPerWrite   = 1               // edge ops per mutation batch
	removeLag     = 64              // an added edge is removed no sooner than this many batches later
	// instances is how many flosd processes an untraced run splits its
	// measured time over. Tail latency differs more from one server process
	// to the next than along one process's life, so pooling a few steadies
	// it.
	instances  = 3
	checkReads = 24     // reads per run whose answers are checked against the oracle
	writeSeed  = 0x3D17 // generator seed of live-rw's mutation sequence
	hotWarm    = 3000   // warm-up reads per instance: fills the result cache
	coldWarm   = 200    // warm-up reads per instance: fills the page cache
)

// schedule is the requests one flosd instance receives.
type schedule struct {
	warm   []op // closed loop, before the measured phases
	open   []op // open loop, due times over the segment's open-loop time
	closed []op // closed loop
	check  []op // live-rw: sent after the last write, answers checked
	writes *writeGen
}

// phases returns the open-loop duration and the closed-loop nominal duration
// of a run of the given length. A traced run spends its time on two
// open-loop phases (untraced, then traced) and has no closed loop.
func phases(wl workload, seconds int, traced bool) (open, closed time.Duration) {
	s := time.Duration(seconds) * time.Second
	if traced {
		return s / 2, 0
	}
	closed = time.Duration(float64(s) * wl.closedShare)
	return s - closed, closed
}

// buildSchedule generates a run's requests from the seed: one schedule per
// flosd instance, each with its share of the run's open-loop time and
// closed-loop requests. The seed draws the request stream: arrival times,
// which hot keys each request asks for and how they group into batches,
// and the cold-disk sample and its order. Like the graph, the hot keys'
// popularity ranking and live-rw's mutation sequence are fixed, so every
// run serves the same hot region and applies the same edits to it.
func buildSchedule(wl workload, in *inputs, seed int64, seconds int, traced bool) ([]*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	openDur, closedDur := phases(wl, seconds, traced)
	k := instances
	if traced {
		k = 1
	}
	segDur := openDur / time.Duration(k)
	nClosed := int(wl.satRate*closedDur.Seconds()) / k

	arrivals := make([][]time.Duration, k)
	nOpen := 0
	for s := range arrivals {
		arrivals[s] = poisson(rng, wl.rate, segDur)
		nOpen += len(arrivals[s])
	}

	// Each phase kind draws from its own source: the hot-key generator, or
	// for cold-disk a stratified sample of the cold pool.
	var warmNext, openNext, closedNext func() op
	var large []qkey
	var hot *hotGen
	if wl.store {
		// The pool sorted by cost, dealt into three sub-pools (one per
		// phase kind, so no query repeats on an instance). Each phase takes
		// an evenly spaced sample of its sub-pool in a shuffled order, so
		// every run sends the same mix of cheap and costly queries: the few
		// costly ones set read_p99_ms, and a count that varied with the seed
		// would move it.
		cold := slices.Clone(in.pools.Cold)
		slices.SortStableFunc(cold, func(a, b qkey) int { return a.V - b.V })
		sample := func(sub, n int) func() op {
			var pool []qkey
			for i := sub; i < len(cold); i += 3 {
				pool = append(pool, cold[i])
			}
			if n > len(pool) {
				return func() op { return op{} } // caught below: the pool is sized for a run
			}
			stride := float64(len(pool)) / float64(n)
			off := rng.Float64() * stride
			picks := make([]qkey, n)
			for j := range picks {
				picks[j] = pool[int(off+float64(j)*stride)]
			}
			rng.Shuffle(n, func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
			return func() op {
				o := readOp(picks[0])
				picks = picks[1:]
				return o
			}
		}
		warmNext, openNext, closedNext = sample(0, coldWarm*k), sample(1, nOpen), sample(2, nClosed*k)
		// The large queries take 1.2-3 s each, so which ones a run drew would
		// move every cold-disk metric; every run sends the same ones in the
		// same order.
		large = slices.Clone(in.pools.Large)
	} else {
		hot = newHotGen(rng, in.pools.Hot)
		warmNext, openNext, closedNext = hot.next, hot.next, hot.next
	}
	nextLarge := func() op {
		if len(large) == 0 {
			return op{}
		}
		o := readOp(large[0])
		large = large[1:]
		return o
	}

	var segs []*schedule
	for s := 0; s < k; s++ {
		sc := &schedule{}
		warm := hotWarm
		if wl.store {
			warm = coldWarm
		}
		for i := 0; i < warm; i++ {
			sc.warm = append(sc.warm, warmNext())
		}
		var writeDue []time.Duration
		if wl.live {
			sc.writes = newWriteGen(rand.New(rand.NewSource(writeSeed)), in.g, hot.keys)
			gap := time.Duration(float64(time.Second) / wl.writeRate)
			for t := gap / 2; t < segDur; t += gap {
				writeDue = append(writeDue, t)
			}
		}
		// cold-disk: one large query in the middle of each closed loop and,
		// in a traced run, one per largeEverySec of open-loop time, each
		// mid-stretch, so two never overlap: overlapping ones would hold both
		// workers and measure the admission bound, not the engine. An
		// untraced open loop sends none. While one runs, flosd stalls the
		// requests beside it for 30-70 ms at a time, and with a few such
		// bursts per run they, not the cold queries, set read_p99_ms, which
		// then varied by a third from run to run.
		nextLargeAt := largeEverySec / 2
		if !traced {
			nextLargeAt = math.MaxInt64
		}
		for _, due := range arrivals[s] {
			for len(writeDue) > 0 && writeDue[0] <= due {
				o := sc.writes.next()
				o.due, writeDue = writeDue[0], writeDue[1:]
				sc.open = append(sc.open, o)
			}
			o := openNext()
			if wl.store && due >= nextLargeAt {
				o = nextLarge()
				nextLargeAt += largeEverySec
			}
			o.due = due
			sc.open = append(sc.open, o)
		}
		readsPerWrite := 0
		if wl.live {
			readsPerWrite = int(math.Round(wl.rate / wl.writeRate))
		}
		for i := 0; i < nClosed; i++ {
			if readsPerWrite > 0 && i%readsPerWrite == 0 {
				sc.closed = append(sc.closed, sc.writes.next())
			}
			o := closedNext()
			if wl.store && i == nClosed/2 {
				o = nextLarge()
			}
			sc.closed = append(sc.closed, o)
		}
		if wl.live {
			// Checked after the last write: the hottest keys, which the
			// result cache most likely still holds (retained across the
			// mutation epochs), plus a few drawn at random.
			for i := 0; i < 12; i++ {
				sc.check = append(sc.check, readOp(hot.keys[i]))
			}
			for i := 0; i < 4; i++ {
				sc.check = append(sc.check, readOp(hot.keys[rng.Intn(len(hot.keys))]))
			}
			for i := range sc.check {
				sc.check[i].check = true
			}
			if sc.writes.err != nil {
				return nil, sc.writes.err
			}
		} else {
			markChecks(rng, checkReads/k, sc.open, sc.closed)
		}
		for _, ph := range [][]op{sc.warm, sc.open, sc.closed} {
			for _, o := range ph {
				if o.method == "" {
					return nil, fmt.Errorf("%s: the query pools are too small for a %ds run", wl.name, seconds)
				}
			}
		}
		segs = append(segs, sc)
	}
	return segs, nil
}

// markChecks picks n reads, spread over the measured phases, whose answers
// the run checks against the oracle.
func markChecks(rng *rand.Rand, n int, phases ...[]op) {
	var reads []*op
	for _, ph := range phases {
		for i := range ph {
			if ph[i].kind == opRead {
				reads = append(reads, &ph[i])
			}
		}
	}
	for _, i := range rng.Perm(len(reads))[:min(n, len(reads))] {
		reads[i].check = true
	}
}

// poisson returns the arrival times of a Poisson process of the given rate
// over [0, dur).
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// readOp builds the request for one key: GET /v1/topk or /v1/unified.
func readOp(k qkey) op {
	path := fmt.Sprintf("/v1/topk?q=%d&k=%d&measure=%s", k.Q, k.K, k.M)
	want := 1
	if k.M == "unified" {
		path = fmt.Sprintf("/v1/unified?q=%d&k=%d", k.Q, k.K)
		want = 2
	}
	if k.Eps {
		path += fmt.Sprintf("&mode=epsilon&epsilon=%g", epsilonFor(k.M))
	}
	return op{kind: opRead, method: "GET", path: path, reads: 1, want: want, keys: []qkey{k}}
}

// batchOp builds a POST /v1/topk/batch over keys sharing measure, k and mode.
func batchOp(keys []qkey) op {
	k0 := keys[0]
	req := map[string]any{"k": k0.K, "measure": k0.M}
	qs := make([]int32, len(keys))
	for i, k := range keys {
		qs[i] = k.Q
	}
	req["queries"] = qs
	if k0.Eps {
		req["mode"] = "epsilon"
		req["epsilon"] = epsilonFor(k0.M)
	}
	body, _ := json.Marshal(req) // plain values; cannot fail
	return op{kind: opRead, method: "POST", path: "/v1/topk/batch", body: body,
		reads: len(keys), want: len(keys), keys: keys}
}

// hotGen draws hot-read requests: keys by Zipf rank over the hot pool in
// its fixed order, a share of them grouped into small batches.
type hotGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	keys    []qkey              // by rank
	byClass map[qkey][]qkey     // rank-ordered keys per measure/k/mode class (Q = 0)
	czipf   map[qkey]*rand.Zipf // per-class rank sampler
}

func newHotGen(rng *rand.Rand, pool []qkey) *hotGen {
	keys := slices.Clone(pool)
	h := &hotGen{
		rng:     rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1)),
		keys:    keys,
		byClass: map[qkey][]qkey{},
		czipf:   map[qkey]*rand.Zipf{},
	}
	for _, k := range keys {
		if k.M != "unified" {
			c := k
			c.Q = 0
			h.byClass[c] = append(h.byClass[c], k)
		}
	}
	for c, ks := range h.byClass {
		h.czipf[c] = rand.NewZipf(rng, zipfS, 1, uint64(len(ks)-1))
	}
	return h
}

func (h *hotGen) next() op {
	k := h.keys[h.zipf.Uint64()]
	if k.M == "unified" || h.rng.Float64() >= batchShare {
		return readOp(k)
	}
	c := k
	c.Q = 0
	members := []qkey{k}
	for tries := 0; len(members) < batchSize && tries < 64; tries++ {
		m := h.byClass[c][h.czipf[c].Uint64()]
		if !slices.ContainsFunc(members, func(x qkey) bool { return x.Q == m.Q }) {
			members = append(members, m)
		}
	}
	return batchOp(members)
}

// edge is an undirected edge with U < V.
type edge struct{ U, V int32 }

func mkEdge(u, v int32) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u, v}
}

// writeBatch is one POST /v1/graph/edges batch.
type writeBatch struct {
	seq int
	add []edge
	w   []float64 // weight of each added edge
	rem []edge
}

// writeGen generates valid mutation batches around the hot keys' query
// nodes: each add closes a triangle (u to a two-hop neighbor it is not yet
// adjacent to), and each remove takes back an edge the writer added at
// least removeLag batches earlier. Every edge is added and removed at most
// once, so batches stay valid in whatever order two connections deliver
// neighbors within removeLag of each other.
type writeGen struct {
	rng     *rand.Rand
	g       *flos.MemGraph
	hot     []int32
	used    map[edge]bool
	pending []struct {
		e   edge
		seq int
	}
	seq int
	err error // set when no valid op could be generated
}

func newWriteGen(rng *rand.Rand, g *flos.MemGraph, byRank []qkey) *writeGen {
	w := &writeGen{rng: rng, g: g, used: map[edge]bool{}}
	seen := map[int32]bool{}
	for _, k := range byRank {
		if len(w.hot) == 256 {
			break
		}
		if !seen[k.Q] {
			seen[k.Q] = true
			w.hot = append(w.hot, k.Q)
		}
	}
	return w
}

func (w *writeGen) adjacent(u, v int32) bool {
	nbrs, _ := w.g.Neighbors(flos.NodeID(u))
	return slices.Contains(nbrs, flos.NodeID(v))
}

// triangle returns a new edge from a hot node to one of its two-hop
// neighbors, or false when a few tries find none.
func (w *writeGen) triangle() (edge, bool) {
	for tries := 0; tries < 64; tries++ {
		u := w.hot[w.rng.Intn(len(w.hot))]
		n1, _ := w.g.Neighbors(flos.NodeID(u))
		if len(n1) == 0 {
			continue
		}
		x := n1[w.rng.Intn(len(n1))]
		n2, _ := w.g.Neighbors(x)
		v := int32(n2[w.rng.Intn(len(n2))])
		e := mkEdge(u, v)
		if v == u || w.used[e] || w.adjacent(u, v) {
			continue
		}
		return e, true
	}
	return edge{}, false
}

func (w *writeGen) next() op {
	b := &writeBatch{seq: w.seq}
	type opBody struct {
		Op string  `json:"op"`
		U  int32   `json:"u"`
		V  int32   `json:"v"`
		W  float64 `json:"w,omitempty"`
	}
	var ops []opBody
	for tries := 0; len(ops) < opsPerWrite && tries < 4*opsPerWrite; tries++ {
		if len(w.pending) > 0 && w.pending[0].seq <= w.seq-removeLag && w.rng.Float64() < 0.5 {
			e := w.pending[0].e
			w.pending = w.pending[1:]
			b.rem = append(b.rem, e)
			ops = append(ops, opBody{Op: "remove", U: e.U, V: e.V})
			continue
		}
		e, ok := w.triangle()
		if !ok {
			continue
		}
		w.used[e] = true
		w.pending = append(w.pending, struct {
			e   edge
			seq int
		}{e, w.seq})
		wt := 0.001 + 0.009*w.rng.Float64()
		b.add = append(b.add, e)
		b.w = append(b.w, wt)
		ops = append(ops, opBody{Op: "add", U: e.U, V: e.V, W: wt})
	}
	if len(ops) == 0 && w.err == nil {
		w.err = fmt.Errorf("write batch %d: no triangle-closing edge found near the hot nodes", w.seq)
	}
	w.seq++
	body, _ := json.Marshal(map[string]any{"ops": ops}) // plain values; cannot fail
	return op{kind: opWrite, method: "POST", path: "/v1/graph/edges", body: body, write: b}
}
