// Command perfbench is the repository's end-to-end benchmark: it launches
// flosd with its default flags on generated inputs, drives the /v1 HTTP
// surface with an open-loop and a closed-loop phase, checks a sample of the
// answers against the global-iteration oracle, and prints every metric with
// its unit. With -trace 1 it instead makes an untraced and a traced run and
// reports per-layer metrics joined from flosd's exported span trees.
//
// It is started through run.sh, which builds flosd and this program:
//
//	bash perfbench/run.sh --workload hot-read --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when an
// answer is wrong, a request fails, or the request accounting does not
// match flosd's /metrics counters.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"flos"
)

// setupRuns is how many flosd start-ups a run times for setup_s.
const setupRuns = 9

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"slo_ratio", "ratio"},
	{"saturation_qps", "req/s"},
	{"success_ratio", "ratio"},
}

// perLayer lists the metrics a traced run reports.
var perLayer = []metricDef{
	{"server.peak_rss_mb", "MiB"},
	{"client.send_lag_p99_ms", "ms"},
	{"client.transport_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.status_4xx", "count"},
	{"server.status_429", "count"},
	{"server.status_5xx", "count"},
	{"qserve.queue_wait_ms", "ms"},
	{"qserve.queue_wait_p99_ms", "ms"},
	{"qserve.cache_lookup_ms", "ms"},
	{"qserve.execute_self_ms", "ms"},
	{"qserve.cache_hit_ratio", "ratio"},
	{"qserve.cache_evictions", "count"},
	{"qserve.worker_busy_ratio", "ratio"},
	{"core.expand_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.certify_ms", "ms"},
	{"core.visited_per_query", "count"},
	{"core.iterations_per_query", "count"},
	{"core.sweeps_per_query", "count"},
	{"core.visited_p99", "count"},
	{"core.parallel_kernel_ratio", "ratio"},
	{"diskgraph.fault_ms", "ms"},
	{"diskgraph.faults_per_query", "count"},
	{"diskgraph.page_hit_ratio", "ratio"},
	{"diskgraph.faults_deduped", "count"},
	{"livegraph.apply_ms", "ms"},
	{"livegraph.invalidate_ms", "ms"},
	{"livegraph.pin_ms", "ms"},
	{"livegraph.rows_cowed_per_batch", "count"},
	{"livegraph.surgical_per_batch", "count"},
	{"livegraph.retained_per_batch", "count"},
	{"livegraph.recertify_hits", "count"},
	{"livegraph.write_p50_ms", "ms"},
	{"livegraph.write_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type config struct {
	wl      workload
	seed    int64
	seconds int
	traced  bool
	flosd   string
	work    string
	conns   int
}

// report is a run's outcome.
type report struct {
	attempted, failed int
	accountingErr     error
	metrics           map[string]float64
	notes             []string // printed before the result line
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-read | cold-disk | live-rw")
		seed    = flag.Int64("seed", 1, "seed for the request and write schedules")
		seconds = flag.Int("seconds", 24, "measured seconds per run")
		traceOn = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		flosd   = flag.String("flosd", "", "flosd binary (built by run.sh)")
		work    = flag.String("work", "", "directory for generated inputs, logs and trace exports")
	)
	flag.Parse()
	// The generator shares the machine with flosd: infrequent collections
	// keep its own GC out of flosd's way.
	debug.SetGCPercent(400)
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceOn == 1, flosd: *flosd, work: *work, conns: runtime.NumCPU()}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *flosd == "" || *work == "" || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -flosd BIN -work DIR --workload hot-read|cold-disk|live-rw --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.wl = workloads[i]
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0 && rep.accountingErr == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1 // JSON has no NaN/Inf; only reachable when every sample failed
		}
		fmt.Printf("%-34s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		if rep.accountingErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: accounting cross-check failed:", rep.accountingErr)
		}
		if rep.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or answered wrong\n", rep.failed, rep.attempted)
		}
		os.Exit(1)
	}
}

func run(cfg config) (*report, error) {
	in, err := loadInputs(cfg.work)
	if err != nil {
		return nil, err
	}
	segs, err := buildSchedule(cfg.wl, in, cfg.seed, cfg.seconds, cfg.traced)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	rep.note("env nproc=%d gomaxprocs=%d go=%s os=%s/%s connections=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.conns)
	rep.note("workload %s seed=%d seconds=%d trace=%v rate=%g req/s write_rate=%g batch/s slo=%gms store=%d bytes pagecache=%dMiB",
		cfg.wl.name, cfg.seed, cfg.seconds, cfg.traced, cfg.wl.rate, cfg.wl.writeRate, cfg.wl.sloMS, in.storeSize, pageCacheMiB)
	if cfg.traced {
		err = runTraced(cfg, in, segs[0], rep)
	} else {
		err = runE2E(cfg, in, segs, rep)
	}
	return rep, err
}

// flosdArgs returns the input flags of a workload; every other flag stays
// at its default.
func flosdArgs(wl workload, in *inputs) []string {
	switch {
	case wl.store:
		return []string{"-store", in.storePath, "-pagecache", fmt.Sprint(pageCacheMiB)}
	case wl.live:
		return []string{"-bin", in.binPath, "-live"}
	}
	return []string{"-bin", in.binPath}
}

// phase is the outcome of one measured phase on one instance.
type phase struct {
	ops  []op
	res  []result
	wall time.Duration
}

// instance runs one flosd through warm-up and the given phases, then the
// answer checks and the accounting cross-check, and stops it.
type instance struct {
	srv    *server
	delta  metrics
	rss    float64
	phases []phase
	check  *phase // live-rw reads sent after the last write
}

func runInstance(cfg config, in *inputs, sc *schedule, extra []string, traced bool, rep *report,
	plan func(l *loader) []phase) (*instance, error) {
	args := append(flosdArgs(cfg.wl, in), extra...)
	srv, err := startFlosd(cfg.flosd, filepath.Join(cfg.work, cfg.wl.name+".flosd.log"), args)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep.note("flosd argv: %s", strings.Join(srv.argv, " "))
	it := &instance{srv: srv}
	warm := newLoader(srv.base, cfg.conns, false)
	if res, _ := warm.run(sc.warm, false, 0); countFailed(res) > 0 {
		warm.close()
		return nil, fmt.Errorf("warm-up: %s", firstErr(res))
	}
	warm.close()
	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	l := newLoader(srv.base, cfg.conns, traced)
	defer l.close()
	it.phases = plan(l)
	if cfg.wl.live && !traced {
		res, wall := l.run(sc.check, false, 0)
		it.check = &phase{ops: sc.check, res: res, wall: wall}
	}
	m1, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	it.delta = m1.sub(m0)
	if it.rss, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	return it, nil
}

// all returns the instance's phases, the live-rw check included.
func (it *instance) all() []phase {
	if it.check != nil {
		return append(slices.Clone(it.phases), *it.check)
	}
	return it.phases
}

// verify checks the sampled answers (against the replayed graph for
// live-rw), cross-checks request accounting against /metrics, and adds the
// instance's operations to the report.
func verify(cfg config, in *inputs, it *instance, rep *report) error {
	checked := 0
	if cfg.wl.live {
		if it.check != nil {
			g, epoch, err := replay(in.g, it.all())
			if err != nil {
				return err
			}
			checked = checkAnswers(g, it.check.ops, it.check.res)
			// A cached answer carries the epoch it was computed at; one
			// older than the last write survived surgical invalidation.
			cached, retained := 0, 0
			for i := range it.check.res {
				r := &it.check.res[i]
				e := uint64(intField(r.body, `"epoch":`))
				switch {
				case r.ok && e > epoch:
					r.ok, r.err = false, fmt.Sprintf("answer at epoch %d, past the last write's %d", e, epoch)
				case r.cached && e < epoch:
					retained++
				}
				if r.cached {
					cached++
				}
			}
			rep.note("live-rw check: %d answers after the last write (epoch %d) on the replayed graph; %d cache hits, %d of them retained from earlier epochs",
				checked, epoch, cached, retained)
		}
	} else {
		for _, ph := range it.phases {
			checked += checkAnswers(in.g, ph.ops, ph.res)
		}
		rep.note("answer check: %d sampled answers against the global-iteration oracle", checked)
	}
	reads := int64(0)
	for _, ph := range it.all() {
		for _, r := range ph.res {
			o := &ph.ops[r.idx]
			reads += int64(o.reads)
			rep.attempted++
			if !r.ok {
				rep.failed++
				if rep.failed <= 5 {
					rep.note("failed: %s %s: %s", o.method, o.path, r.err)
				}
			}
		}
	}
	d := it.delta
	rep.note("accounting: reads sent %d, served %d, shed %d; ok %d + cache_answered %d + deadline %d + canceled %d + failed %d",
		reads, d.Served, d.Shed, d.OK, d.CacheAnswered, d.Deadline, d.Canceled, d.Failed)
	var errs []error
	if reads != d.Served+d.Shed {
		errs = append(errs, fmt.Errorf("reads sent %d != served %d + shed %d", reads, d.Served, d.Shed))
	}
	if sum := d.OK + d.CacheAnswered + d.Deadline + d.Canceled + d.Failed; sum != d.Served {
		errs = append(errs, fmt.Errorf("ok+cache_answered+deadline+canceled+failed = %d != served %d", sum, d.Served))
	}
	if err := errors.Join(errs...); err != nil && rep.accountingErr == nil {
		rep.accountingErr = err
	}
	return nil
}

// runE2E is the untraced run: setup_s over several start-ups, then, on each
// of the measurement instances in turn, warm-up, the open-loop and
// closed-loop phases, and the checks. Latencies and throughput pool the
// instances' samples.
func runE2E(cfg config, in *inputs, segs []*schedule, rep *report) error {
	var setups []float64
	for i := 0; i < setupRuns-len(segs); i++ {
		srv, err := startFlosd(cfg.flosd, filepath.Join(cfg.work, cfg.wl.name+".flosd.log"), flosdArgs(cfg.wl, in))
		if err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
		srv.stop()
	}
	_, closedDur := phases(cfg.wl, cfg.seconds, false)
	var open, closed []phase
	var rss []float64
	for _, sc := range segs {
		it, err := runInstance(cfg, in, sc, nil, false, rep, func(l *loader) []phase {
			openRes, openWall := l.run(sc.open, true, 0)
			closedRes, closedWall := l.run(sc.closed, false, 4*closedDur)
			return []phase{{sc.open, openRes, openWall}, {sc.closed, closedRes, closedWall}}
		})
		if err != nil {
			return err
		}
		setups = append(setups, it.srv.setup.Seconds())
		if err := verify(cfg, in, it, rep); err != nil {
			return err
		}
		open, closed = append(open, it.phases[0]), append(closed, it.phases[1])
		rss = append(rss, it.rss)
	}
	var lat, lags []float64
	within := 0.0
	for _, ph := range open {
		l, slo, g := readLatencies(ph, cfg.wl.sloMS)
		lat, lags = append(lat, l...), append(lags, g...)
		within += slo * float64(len(l))
	}
	okReads, wall := 0, time.Duration(0)
	for _, ph := range closed {
		for _, r := range ph.res {
			if r.ok && ph.ops[r.idx].kind == opRead {
				okReads++
			}
		}
		wall += ph.wall
	}
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["read_p50_ms"] = windowed(lat, 0.5, 200)
	m["read_p99_ms"] = windowed(lat, 0.99, 1000)
	m["slo_ratio"] = ratio(within, float64(len(lat)))
	m["saturation_qps"] = float64(okReads) / wall.Seconds()
	m["success_ratio"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	rep.note("samples: open-loop reads %d over %d instances (p99 reportable: %v, highest percentile with %d beyond: %s), closed-loop ok reads %d in %.3fs, setup samples %d",
		len(lat), len(segs), reportable(len(lat), 0.99), minBeyond, pctString(len(lat)), okReads, wall.Seconds(), len(setups))
	rep.note("generator: send lag p99 %.3fms over %d timed sends; flosd peak RSS (VmHWM) per instance %v MiB", quantile(lags, 0.99), len(lags), rss)
	var visited []float64
	for _, ph := range append(open, closed...) {
		for _, r := range ph.res {
			if r.visited >= 0 {
				visited = append(visited, float64(r.visited))
			}
		}
	}
	rep.note("executed single reads: %d, visited p50 %g p99 %g max %g, over %d: %d", len(visited), median(visited),
		quantile(visited, 0.99), quantile(visited, 1), largeVisited, countAbove(visited, largeVisited))
	return nil
}

// readLatencies returns an open-loop phase's read latencies in ms (failed
// reads as +Inf), the share answered correctly within sloMS, and the
// generator's wake-up lags in ms.
func readLatencies(ph phase, sloMS float64) (lat []float64, slo float64, lags []float64) {
	within := 0
	for _, r := range ph.res {
		if ph.ops[r.idx].kind != opRead {
			continue
		}
		v := math.Inf(1)
		if r.ok {
			v = ms(r.latency)
		}
		if v <= sloMS {
			within++
		}
		lat = append(lat, v)
		if r.lag >= 0 {
			lags = append(lags, ms(r.lag))
		}
	}
	return lat, ratio(float64(within), float64(len(lat))), lags
}

// writeLatencies returns a phase's write latencies in ms (failed as +Inf).
func writeLatencies(ph phase) []float64 {
	var lat []float64
	for _, r := range ph.res {
		if ph.ops[r.idx].kind == opWrite {
			v := math.Inf(1)
			if r.ok {
				v = ms(r.latency)
			}
			lat = append(lat, v)
		}
	}
	return lat
}

func pctString(n int) string {
	if q, ok := highestPercentile(n); ok {
		return fmt.Sprintf("p%.4g", 100*q)
	}
	return "none"
}

func countAbove(xs []float64, t float64) int {
	n := 0
	for _, x := range xs {
		if x > t {
			n++
		}
	}
	return n
}

func countFailed(res []result) int {
	n := 0
	for _, r := range res {
		if !r.ok {
			n++
		}
	}
	return n
}

func firstErr(res []result) string {
	for _, r := range res {
		if !r.ok {
			return r.err
		}
	}
	return ""
}

// replay applies the successful write batches, in the order their epochs
// say the server applied them, to a copy of the base graph, and returns it
// with the last epoch. A batch that would have been invalid at its turn is
// an error: the server accepted something it should have refused.
func replay(base *flos.MemGraph, phases []phase) (*flos.MemGraph, uint64, error) {
	type applied struct {
		epoch uint64
		b     *writeBatch
	}
	var log []applied
	for _, ph := range phases {
		for _, r := range ph.res {
			if o := &ph.ops[r.idx]; o.kind == opWrite && r.ok {
				log = append(log, applied{r.epoch, o.write})
			}
		}
	}
	slices.SortFunc(log, func(a, b applied) int { return int(a.epoch) - int(b.epoch) })
	added := map[edge]float64{}
	var last uint64
	for _, a := range log {
		if a.epoch == last {
			return nil, 0, fmt.Errorf("two write batches published epoch %d", a.epoch)
		}
		last = a.epoch
		for i, e := range a.b.add {
			if _, ok := added[e]; ok {
				return nil, 0, fmt.Errorf("epoch %d added present edge %v", a.epoch, e)
			}
			added[e] = a.b.w[i]
		}
		for _, e := range a.b.rem {
			if _, ok := added[e]; !ok {
				return nil, 0, fmt.Errorf("epoch %d removed absent edge %v", a.epoch, e)
			}
			delete(added, e)
		}
	}
	n := base.NumNodes()
	b := flos.NewGraphBuilder(n)
	for v := 0; v < n; v++ {
		nbrs, ws := base.Neighbors(flos.NodeID(v))
		for i, u := range nbrs {
			if flos.NodeID(v) < u {
				if err := b.AddEdge(flos.NodeID(v), u, ws[i]); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	for e, w := range added {
		if err := b.AddEdge(flos.NodeID(e.U), flos.NodeID(e.V), w); err != nil {
			return nil, 0, err
		}
	}
	g, err := b.Build()
	return g, last, err
}
