package main

// Generated inputs: the AZ stand-in graph as a binary CSR file and a disk
// store, and the classified query pools the schedules draw from. All of it
// is derived from fixed generator seeds, so it is cached under the work
// directory and rebuilt only when missing; the workload seed then picks,
// orders and times requests from these pools.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"flos"
	"flos/internal/harness"
)

// graphScale selects the AZ stand-in at 1/8 scale: the community model with
// 41,857 nodes and 115,734 edges.
const graphScale = 1.0 / 8

// Classification thresholds. A probe capped at probeCap visited nodes that
// fails to certify marks a heavy query; a heavy query that visits more than
// largeVisited nodes when run to the end is a large query — the regime where
// Kernel=auto leaves the serial kernel. Hot keys must certify under the
// tighter hotCap: a key that needs many more nodes than its peers sits near
// a score tie, and live-rw's small edge edits can tip it into a
// whole-graph search.
const (
	probeCap     = 4096
	hotCap       = 1500
	largeVisited = 32768
)

// Pool sizes. hotKeys is the hot-read key space, eight times the default
// 1024-entry result cache; coldKeys covers the distinct exact queries of one
// cold-disk instance; largeKeys covers the large queries one instance sends.
const (
	hotKeys   = 8192
	coldKeys  = 7500
	largeKeys = 10
)

var measures = []string{"php", "ei", "dht", "tht", "rwr"}

var measureKinds = map[string]flos.Measure{
	"php": flos.PHP, "ei": flos.EI, "dht": flos.DHT, "tht": flos.THT, "rwr": flos.RWR,
}

var ks = []int{10, 20, 50}

// qkey is one query: node, measure ("unified" for /v1/unified), k, and
// whether it runs in ε mode.
type qkey struct {
	Q   int32  `json:"q"`
	M   string `json:"m"`
	K   int    `json:"k"`
	Eps bool   `json:"eps,omitempty"`
	V   int    `json:"v,omitempty"` // visited nodes in process, for cold keys
}

// epsilonFor returns the ε budget a key's measure uses in ε mode: fractional
// proximities for the PHP family, fractional hops for THT.
func epsilonFor(m string) float64 {
	if m == "tht" {
		return 0.05
	}
	return 1e-3
}

// pools holds the classified queries.
type pools struct {
	Hot   []qkey `json:"hot"`   // light keys over every measure, unified and ε included
	Cold  []qkey `json:"cold"`  // light exact /v1/topk queries
	Large []qkey `json:"large"` // exact /v1/topk queries visiting more than largeVisited nodes
}

// inputs is everything generated for a run.
type inputs struct {
	g         *flos.MemGraph
	binPath   string
	storePath string
	storeSize int64
	pools     pools
}

// loadInputs generates (or reuses) the graph files and query pools in dir.
func loadInputs(dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds := harness.RealStandIns(graphScale)[0]
	stem := fmt.Sprintf("%s-%d-%d-%x", ds.Name, ds.Nodes, ds.Edges, ds.Seed)
	in := &inputs{
		binPath:   filepath.Join(dir, stem+".bin"),
		storePath: filepath.Join(dir, stem+".flos"),
	}
	var err error
	if in.g, err = flos.LoadBinary(in.binPath); err != nil {
		if in.g, err = ds.Build(); err != nil {
			return nil, fmt.Errorf("generate %s: %w", ds.Name, err)
		}
		if err := writeAtomic(in.binPath, func(p string) error { return flos.SaveBinary(p, in.g) }); err != nil {
			return nil, err
		}
	}
	if _, err := os.Stat(in.storePath); err != nil {
		if err := writeAtomic(in.storePath, func(p string) error { return flos.CreateDiskGraph(p, in.g) }); err != nil {
			return nil, err
		}
	}
	fi, err := os.Stat(in.storePath)
	if err != nil {
		return nil, err
	}
	in.storeSize = fi.Size()

	poolPath := filepath.Join(dir, fmt.Sprintf("%s.pools-%d-%d-%d.json", stem, hotCap, probeCap, coldKeys))
	if b, err := os.ReadFile(poolPath); err == nil && json.Unmarshal(b, &in.pools) == nil &&
		len(in.pools.Hot) == hotKeys && len(in.pools.Cold) == coldKeys && len(in.pools.Large) == largeKeys {
		return in, nil
	}
	if in.pools, err = classifyPools(in.g); err != nil {
		return nil, err
	}
	b, err := json.Marshal(in.pools)
	if err != nil {
		return nil, err
	}
	return in, writeAtomic(poolPath, func(p string) error { return os.WriteFile(p, b, 0o644) })
}

// writeAtomic writes path through a temporary sibling and a rename, so an
// interrupted run never leaves a truncated cache file behind.
func writeAtomic(path string, write func(string) error) error {
	tmp := path + ".tmp"
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.Rename(tmp, path)
}

// classifyPools draws candidate queries from fixed generator seeds and
// classifies each by a capped probe: certified under the cap means light. Heavy cold candidates are run to the end and kept as large
// when they visit more than largeVisited nodes; heavy hot candidates are
// dropped, so hot-read misses stay cheap.
func classifyPools(g *flos.MemGraph) (pools, error) {
	var p pools
	n := g.NumNodes()

	hotRng := rand.New(rand.NewSource(0x407))
	var hot []qkey
	seen := map[qkey]bool{}
	for len(hot) < 2*hotKeys {
		m := "unified"
		if hotRng.Float64() >= 0.05 {
			m = measures[hotRng.Intn(len(measures))]
		}
		k := qkey{Q: int32(hotRng.Intn(n)), M: m, K: ks[hotRng.Intn(len(ks))], Eps: hotRng.Float64() < 0.2}
		if !seen[k] {
			seen[k] = true
			hot = append(hot, k)
		}
	}
	light, _, err := probeAll(g, hot, hotCap)
	if err != nil {
		return p, err
	}
	for i, k := range hot {
		if light[i] && len(p.Hot) < hotKeys {
			p.Hot = append(p.Hot, k)
		}
	}
	if len(p.Hot) < hotKeys {
		return p, fmt.Errorf("only %d light hot keys", len(p.Hot))
	}

	coldRng := rand.New(rand.NewSource(0xC01D))
	seen = map[qkey]bool{}
	for len(p.Cold) < coldKeys || len(p.Large) < largeKeys {
		if len(seen) > 40*coldKeys {
			return p, fmt.Errorf("found only %d large queries", len(p.Large))
		}
		var batch []qkey
		for len(batch) < 512 {
			k := qkey{Q: int32(coldRng.Intn(n)), M: measures[coldRng.Intn(len(measures))], K: ks[coldRng.Intn(len(ks))]}
			if !seen[k] {
				seen[k] = true
				batch = append(batch, k)
			}
		}
		light, visited, err := probeAll(g, batch, probeCap)
		if err != nil {
			return p, err
		}
		var heavy []qkey
		for i, k := range batch {
			switch {
			case light[i] && len(p.Cold) < coldKeys:
				k.V = visited[i]
				p.Cold = append(p.Cold, k)
			case !light[i]:
				heavy = append(heavy, k)
			}
		}
		if len(heavy) == 0 || len(p.Large) >= largeKeys {
			continue
		}
		full, err := runFull(g, heavy)
		if err != nil {
			return p, err
		}
		for i, k := range heavy {
			if full[i] > largeVisited && len(p.Large) < largeKeys {
				p.Large = append(p.Large, k)
			}
		}
	}
	return p, nil
}

// probeAll runs every key once with the given visited-set cap, on all
// CPUs, and reports which certified (light) and how many nodes each visited.
func probeAll(g *flos.MemGraph, keys []qkey, maxVisited int) (light []bool, visited []int, err error) {
	light = make([]bool, len(keys))
	visited = make([]int, len(keys))
	err = parallel(len(keys), func(i int) error {
		var err error
		light[i], visited[i], err = runKey(g, keys[i], maxVisited)
		return err
	})
	return light, visited, err
}

// runFull runs every key to the end and returns its visited count.
func runFull(g *flos.MemGraph, keys []qkey) ([]int, error) {
	visited := make([]int, len(keys))
	err := parallel(len(keys), func(i int) error {
		_, v, err := runKey(g, keys[i], 0)
		visited[i] = v
		return err
	})
	return visited, err
}

// runKey answers one key in process with the server's default options and
// the given visited cap (0 = none). ε keys are probed in exact mode, the
// costlier of the two.
func runKey(g *flos.MemGraph, k qkey, maxVisited int) (certified bool, visited int, err error) {
	m := measureKinds[k.M]
	if k.M == "unified" {
		m = flos.PHP
	}
	opt := flos.DefaultOptions(m, k.K)
	opt.MaxVisited = maxVisited
	ctx := context.Background()
	if k.M == "unified" {
		res, err := flos.UnifiedTopKCtx(ctx, g, flos.NodeID(k.Q), opt)
		if err != nil {
			return false, 0, fmt.Errorf("probe %+v: %w", k, err)
		}
		return res.Exact, res.Visited, nil
	}
	res, err := flos.TopKCtx(ctx, g, flos.NodeID(k.Q), opt)
	if err != nil {
		return false, 0, fmt.Errorf("probe %+v: %w", k, err)
	}
	return res.Exact, res.Visited, nil
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and returns the first
// error.
func parallel(n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
