package main

// flosd process control: start the server with its default flags, time
// exec to the first /healthz 200, scrape /metrics?format=json, read the
// peak resident set, and stop it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running flosd.
type server struct {
	cmd   *exec.Cmd
	argv  []string
	base  string
	setup time.Duration
	log   *os.File
	done  chan struct{} // closed once the process has been reaped
	err   error         // Wait's error, valid after done
}

// startFlosd launches bin with args plus a free loopback -addr, its stdout
// and stderr going to logPath, and waits for /healthz to answer 200.
func startFlosd(bin, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	argv := append(append([]string{bin}, args...), "-addr", "127.0.0.1:"+port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Take flosd down with the benchmark if the benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, argv: argv, base: "http://127.0.0.1:" + port, log: logf, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start flosd: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				return s, nil
			}
		}
		select {
		case <-s.done:
			logf.Close()
			return nil, fmt.Errorf("flosd exited during start-up (%v); log in %s", s.err, logPath)
		default:
		}
		if time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, fmt.Errorf("flosd not healthy after 60s; log in %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates flosd and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// metrics is the subset of /metrics?format=json the benchmark reads.
type metrics struct {
	Served         int64 `json:"queries_served"`
	Shed           int64 `json:"queries_shed"`
	OK             int64 `json:"queries_ok"`
	CacheAnswered  int64 `json:"queries_cache_answered"`
	Deadline       int64 `json:"queries_deadline"`
	Canceled       int64 `json:"queries_canceled"`
	Failed         int64 `json:"queries_failed"`
	Iterations     int64 `json:"engine_iterations"`
	Visited        int64 `json:"engine_visited_nodes"`
	Sweeps         int64 `json:"engine_sweeps"`
	Workers        int   `json:"workers"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	Live           struct {
		RowsCoWed             int64 `json:"rows_cowed"`
		InvalidationsSurgical int64 `json:"invalidations_surgical"`
		CacheRetained         int64 `json:"cache_retained"`
		RecertifyHits         int64 `json:"recertify_hits"`
	} `json:"live"`
	Disk struct {
		PageHits      int64 `json:"page_hits"`
		PageFaults    int64 `json:"page_faults"`
		FaultsDeduped int64 `json:"faults_deduped"`
	} `json:"disk"`
}

// sub returns the counter deltas m - o (gauges keep m's value).
func (m metrics) sub(o metrics) metrics {
	d := m
	d.Served -= o.Served
	d.Shed -= o.Shed
	d.OK -= o.OK
	d.CacheAnswered -= o.CacheAnswered
	d.Deadline -= o.Deadline
	d.Canceled -= o.Canceled
	d.Failed -= o.Failed
	d.Iterations -= o.Iterations
	d.Visited -= o.Visited
	d.Sweeps -= o.Sweeps
	d.CacheHits -= o.CacheHits
	d.CacheMisses -= o.CacheMisses
	d.CacheEvictions -= o.CacheEvictions
	d.Live.RowsCoWed -= o.Live.RowsCoWed
	d.Live.InvalidationsSurgical -= o.Live.InvalidationsSurgical
	d.Live.CacheRetained -= o.Live.CacheRetained
	d.Live.RecertifyHits -= o.Live.RecertifyHits
	d.Disk.PageHits -= o.Disk.PageHits
	d.Disk.PageFaults -= o.Disk.PageFaults
	d.Disk.FaultsDeduped -= o.Disk.FaultsDeduped
	return d
}

// executed is the number of queries that ran on the engine.
func (m metrics) executed() int64 { return m.Served - m.CacheAnswered }

func (s *server) metrics() (metrics, error) {
	var m metrics
	resp, err := http.Get(s.base + "/metrics?format=json")
	if err != nil {
		return m, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}
