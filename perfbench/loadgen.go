package main

// The load generator: a fixed set of keep-alive connections (one goroutine
// each) that take the next request of a schedule in order. In an open-loop
// phase each request waits for its due time. A request whose connection was
// still busy at its due time is timed from the due time, so a stall counts
// against every request it delays; one whose connection was free is timed
// from the generator's wake-up, and the wake-up's lateness is reported as
// generator lag. In a closed-loop phase each connection sends back to back.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type opKind int

const (
	opRead  opKind = iota // GET /v1/topk, GET /v1/unified, POST /v1/topk/batch
	opWrite               // POST /v1/graph/edges
)

// op is one scheduled HTTP request.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	due    time.Duration // offset from the phase start (open loop only)
	reads  int           // query executions it asks for (batch size for a batch)
	want   int           // certification blocks a correct response carries
	keys   []qkey        // the queries, for the answer check
	write  *writeBatch
	check  bool // keep the response body for the answer check
}

// result is what one sent op produced.
type result struct {
	status  int
	err     string
	ok      bool          // 2xx and structurally valid
	latency time.Duration // from due time or wake-up (open loop), or send (closed loop)
	lag     time.Duration // generator wake-up lateness; -1 when the op waited for a connection instead
	cached  bool
	visited int // engine visited count of an executed single read, -1 otherwise
	epoch   uint64
	body    []byte // kept for checked reads and for writes
	client  span   // client span, when traced
	idx     int    // index of the op in its schedule
}

// loader drives one flosd instance.
type loader struct {
	base   string
	client *http.Client
	conns  int
	traced bool
}

func newLoader(base string, conns int, traced bool) *loader {
	return &loader{
		base:  base,
		conns: conns,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		traced: traced,
	}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// run sends ops over l.conns connections and returns one result per op
// sent, in op order, and the phase's wall time. A closed-loop phase stops
// sending once limit has passed (0 = no limit).
func (l *loader) run(ops []op, open bool, limit time.Duration) ([]result, time.Duration) {
	results := make([]result, len(ops))
	sent := make([]bool, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond) // lead time so the first ops are not late
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if !open && limit > 0 && time.Since(t0) > limit {
					return
				}
				o := &ops[i]
				lag := time.Duration(-1)
				var from time.Time
				if open {
					from = t0.Add(o.due)
					if time.Now().Before(from) {
						// The connection was free at the due time: the
						// request is timed from the generator's wake-up,
						// whose lateness is the generator's own and is
						// reported as lag instead.
						sleepUntil(from)
						wake := time.Now()
						lag, from = wake.Sub(from), wake
					}
				} else {
					from = time.Now()
				}
				results[i] = l.send(o, from, &buf)
				results[i].lag = lag
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	out := results[:0]
	for i := range results {
		if sent[i] {
			results[i].idx = i
			out = append(out, results[i])
		}
	}
	return out, wall
}

var certifiedTrue = []byte(`"certified":true`)

// send issues one op and classifies its response.
func (l *loader) send(o *op, from time.Time, buf *bytes.Buffer) result {
	r := result{visited: -1}
	req, err := http.NewRequest(o.method, l.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if l.traced {
		r.client = span{TraceID: hexID(2), ID: hexID(1), Name: "client"}
		req.Header.Set("traceparent", "00-"+r.client.TraceID+"-"+r.client.ID+"-01")
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	end := time.Now()
	r.latency = end.Sub(from)
	r.client.Start, r.client.End = start.UnixNano(), end.UnixNano()
	if err != nil {
		r.err = err.Error()
		return r
	}
	body := buf.Bytes()
	if r.status/100 != 2 {
		r.err = fmt.Sprintf("status %d: %.200s", r.status, body)
		return r
	}
	switch o.kind {
	case opWrite:
		r.ok = bytes.Contains(body, []byte(`"applied":`))
		r.epoch = uint64(intField(body, `"epoch":`))
		r.body = append([]byte(nil), body...)
	default:
		r.ok = bytes.Count(body, certifiedTrue) == o.want && !bytes.Contains(body, []byte(`"error":`))
		if o.reads == 1 {
			r.cached = bytes.Contains(body, []byte(`"cached":true`))
			if !r.cached {
				r.visited = int(intField(body, `"visited":`))
			}
		}
		if o.check {
			r.body = append([]byte(nil), body...)
		}
	}
	if !r.ok {
		r.err = fmt.Sprintf("malformed response: %.200s", body)
	}
	return r
}

// intField parses the integer following the first occurrence of key, or
// returns -1.
func intField(body []byte, key string) int64 {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// hexID returns a random non-zero ID of n 64-bit words in lowercase hex.
func hexID(n int) string {
	var b []byte
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "%016x", rand.Uint64()|1)
	}
	return string(b)
}

// sleepUntil blocks until t. time.Sleep wakes on a coarse timer here, up to
// a millisecond late, which would add to every open-loop latency; the final
// stretch therefore goes through nanosleep, whose wake-up is tens of
// microseconds late.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake-up only shortens the wait
	}
}
