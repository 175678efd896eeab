package main

// The traced run: the same open-loop schedule against an untraced flosd
// (the baseline for trace.overhead_ratio and the write latencies) and then
// against one started with -trace-export, whose exported span trees are
// joined to the benchmark's client spans for the per-layer metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func runTraced(cfg config, in *inputs, sc *schedule, rep *report) error {
	openOnly := func(l *loader) []phase {
		res, wall := l.run(sc.open, true, 0)
		return []phase{{sc.open, res, wall}}
	}
	base, err := runInstance(cfg, in, sc, nil, false, rep, openOnly)
	if err != nil {
		return err
	}
	if err := verify(cfg, in, base, rep); err != nil {
		return err
	}
	export := filepath.Join(cfg.work, cfg.wl.name+".trace.jsonl")
	if err := os.Remove(export); err != nil && !os.IsNotExist(err) {
		return err
	}
	tr, err := runInstance(cfg, in, sc, []string{"-trace-export", export}, true, rep, openOnly)
	if err != nil {
		return err
	}
	if err := verify(cfg, in, tr, rep); err != nil {
		return err
	}
	f, err := os.Open(export)
	if err != nil {
		return err
	}
	all, err := parseOTLP(f)
	f.Close()
	if err != nil {
		return err
	}
	_ = os.Remove(export) // tens of MB; nothing reads it after this run

	ph := tr.phases[0]
	mine := map[string]bool{}
	var client []span
	for _, r := range ph.res {
		mine[r.client.TraceID] = true
		client = append(client, r.client)
	}
	var spans []span // the measured phase's server spans; warm-up traces are dropped
	for _, s := range all {
		if mine[s.TraceID] {
			spans = append(spans, s)
		}
	}
	layerMetrics(cfg, rep, base, tr, client, spans)
	return nil
}

// layerMetrics fills the per-layer metrics from the traced instance's spans,
// its /metrics deltas, and the client's own observations.
func layerMetrics(cfg config, rep *report, base, tr *instance, client, spans []span) {
	m := rep.metrics
	ph := tr.phases[0]
	layers := byName(spans)
	get := func(name string) *layerStats {
		if ls := layers[name]; ls != nil {
			return ls
		}
		return &layerStats{}
	}
	const nsPerMS = 1e6
	meanDur := func(name string) float64 { ls := get(name); return ratio(ls.sumNS, float64(ls.count)) / nsPerMS }

	// Client: generator lateness and the time outside flosd's root span.
	baseLat, _, _ := readLatencies(base.phases[0], cfg.wl.sloMS)
	trLat, _, lags := readLatencies(ph, cfg.wl.sloMS)
	m["client.send_lag_p99_ms"] = quantile(lags, 0.99)
	transport, unjoined := joinClient(client, spans)
	m["client.transport_ms"] = mean(transport) / nsPerMS

	// Server: root spans are named after the route ("GET /v1/topk", ...).
	var rootSelf float64
	roots := 0
	for name, ls := range layers {
		if strings.HasPrefix(name, "GET ") || strings.HasPrefix(name, "POST ") {
			rootSelf += ls.selfNS
			roots += ls.count
		}
	}
	m["server.self_ms"] = ratio(rootSelf, float64(roots)) / nsPerMS
	m["server.peak_rss_mb"] = base.rss
	for _, r := range ph.res {
		switch {
		case r.status == 429:
			m["server.status_429"]++
		case r.status >= 500:
			m["server.status_5xx"]++
		case r.status >= 400:
			m["server.status_4xx"]++
		}
	}

	// qserve: admission wait, cache lookup, the execute span's own time.
	qw := get("qserve.queue.wait")
	m["qserve.queue_wait_ms"] = meanDur("qserve.queue.wait")
	m["qserve.queue_wait_p99_ms"] = quantile(qw.durNS, 0.99) / nsPerMS
	m["qserve.cache_lookup_ms"] = meanDur("qserve.cache.lookup")
	exec := get("qserve.execute")
	m["qserve.execute_self_ms"] = ratio(exec.selfNS, float64(exec.count)) / nsPerMS
	d := tr.delta
	m["qserve.cache_hit_ratio"] = ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	m["qserve.cache_evictions"] = float64(d.CacheEvictions)
	m["qserve.worker_busy_ratio"] = ratio(exec.sumNS, float64(d.Workers)*float64(ph.wall))

	// core: phase time per executed query, exact work counters, kernel mix.
	perExec := func(name string) float64 { return ratio(get(name).sumNS, float64(exec.count)) / nsPerMS }
	m["core.expand_ms"] = perExec("solver.expand")
	m["core.solve_ms"] = perExec("solver.solve")
	m["core.certify_ms"] = perExec("solver.certify")
	executed := float64(d.executed())
	m["core.visited_per_query"] = ratio(float64(d.Visited), executed)
	m["core.iterations_per_query"] = ratio(float64(d.Iterations), executed)
	m["core.sweeps_per_query"] = ratio(float64(d.Sweeps), executed)
	var visited []float64
	for _, r := range ph.res {
		if r.visited >= 0 {
			visited = append(visited, float64(r.visited))
		}
	}
	m["core.visited_p99"] = quantile(visited, 0.99)
	parallelRuns := 0
	for _, s := range spans {
		if s.Name == "qserve.execute" && s.Attrs["kernel"] != "" && s.Attrs["kernel"] != "serial" {
			parallelRuns++
		}
	}
	m["core.parallel_kernel_ratio"] = ratio(float64(parallelRuns), float64(exec.count))

	// diskgraph: fault stalls per executed query and page-cache counters.
	m["diskgraph.fault_ms"] = perExec("disk.pagefault")
	m["diskgraph.faults_per_query"] = ratio(float64(d.Disk.PageFaults), executed)
	m["diskgraph.page_hit_ratio"] = ratio(float64(d.Disk.PageHits), float64(d.Disk.PageHits+d.Disk.PageFaults))
	m["diskgraph.faults_deduped"] = float64(d.Disk.FaultsDeduped)

	// livegraph: mutation apply, cache invalidation, snapshot pins.
	batches := 0
	for _, r := range ph.res {
		if ph.ops[r.idx].kind == opWrite && r.ok {
			batches++
		}
	}
	m["livegraph.apply_ms"] = meanDur("livegraph.apply")
	m["livegraph.invalidate_ms"] = meanDur("qserve.cache.invalidate")
	m["livegraph.pin_ms"] = meanDur("livegraph.pin")
	m["livegraph.rows_cowed_per_batch"] = ratio(float64(d.Live.RowsCoWed), float64(batches))
	m["livegraph.surgical_per_batch"] = ratio(float64(d.Live.InvalidationsSurgical), float64(batches))
	m["livegraph.retained_per_batch"] = ratio(float64(d.Live.CacheRetained), float64(batches))
	m["livegraph.recertify_hits"] = float64(d.Live.RecertifyHits)
	writes := writeLatencies(base.phases[0])
	m["livegraph.write_p50_ms"] = median(writes)
	m["livegraph.write_p99_ms"] = quantile(writes, 0.99)

	m["trace.overhead_ratio"] = ratio(median(trLat), median(baseLat)) - 1

	rep.note("traced run: %d client spans, %d joined to server root spans (%d unjoined), %d server spans, %d executed queries traced, %d roots",
		len(client), len(transport), unjoined, len(spans), exec.count, roots)
	rep.note("samples: untraced reads %d, traced reads %d, executed-read visited samples %d (%s), writes %d, queue waits %d (%s)",
		len(baseLat), len(trLat), len(visited), pctString(len(visited)), len(writes), qw.count, pctString(qw.count))
	rep.note("phase walls: untraced %s, traced %s", base.phases[0].wall.Round(time.Millisecond), ph.wall.Round(time.Millisecond))
	if unjoined > 0 {
		rep.note("warning: %s", fmt.Sprintf("%d client spans found no server root span in the export", unjoined))
	}
}
