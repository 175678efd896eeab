package main

// Traced-run collector: parses the OTLP JSON lines flosd writes with
// -trace-export, joins them to the benchmark's own client spans by trace
// ID, and computes each span's self time — its duration minus the part of
// its interval that its direct children cover.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// span is one exported server span, or one client span of the benchmark.
type span struct {
	TraceID string
	ID      string
	Parent  string
	Name    string
	Start   int64 // unix nanoseconds
	End     int64
	Attrs   map[string]string
}

func (s span) dur() int64 { return s.End - s.Start }

// otlpLine is the subset of one exported ExportTraceServiceRequest line the
// collector reads.
type otlpLine struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []struct {
				TraceID      string `json:"traceId"`
				SpanID       string `json:"spanId"`
				ParentSpanID string `json:"parentSpanId"`
				Name         string `json:"name"`
				Start        string `json:"startTimeUnixNano"`
				End          string `json:"endTimeUnixNano"`
				Attributes   []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue *string  `json:"stringValue"`
						IntValue    *string  `json:"intValue"`
						BoolValue   *bool    `json:"boolValue"`
						DoubleValue *float64 `json:"doubleValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

// parseOTLP reads every span from an OTLP JSON-lines stream.
func parseOTLP(r io.Reader) ([]span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var out []span
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line otlpLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("trace export line %d: %w", n, err)
		}
		for _, rs := range line.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				for _, s := range ss.Spans {
					start, err1 := strconv.ParseInt(s.Start, 10, 64)
					end, err2 := strconv.ParseInt(s.End, 10, 64)
					if err1 != nil || err2 != nil {
						return nil, fmt.Errorf("trace export line %d: bad timestamps %q..%q", n, s.Start, s.End)
					}
					sp := span{TraceID: s.TraceID, ID: s.SpanID, Parent: s.ParentSpanID, Name: s.Name,
						Start: start, End: end, Attrs: map[string]string{}}
					for _, a := range s.Attributes {
						switch v := a.Value; {
						case v.StringValue != nil:
							sp.Attrs[a.Key] = *v.StringValue
						case v.IntValue != nil:
							sp.Attrs[a.Key] = *v.IntValue
						case v.BoolValue != nil:
							sp.Attrs[a.Key] = strconv.FormatBool(*v.BoolValue)
						case v.DoubleValue != nil:
							sp.Attrs[a.Key] = strconv.FormatFloat(*v.DoubleValue, 'g', -1, 64)
						}
					}
					out = append(out, sp)
				}
			}
		}
	}
	return out, sc.Err()
}

// covered returns how much of [lo, hi) the union of the given intervals
// covers. Intervals are clipped to [lo, hi) first, so a child that overruns
// its parent is charged only for the overlap.
func covered(lo, hi int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time in nanoseconds, keyed by span ID
// within its trace ("traceID/spanID"): its duration minus the time its
// direct children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[string][][2]int64)
	for _, s := range spans {
		if s.Parent != "" {
			k := s.TraceID + "/" + s.Parent
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		k := s.TraceID + "/" + s.ID
		out[k] = s.dur() - covered(s.Start, s.End, children[k])
	}
	return out
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	count  int
	durNS  []float64 // per span, for percentiles
	selfNS float64   // summed self time
	sumNS  float64   // summed duration
}

// byName groups spans by name with their self times.
func byName(spans []span) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		ls.count++
		ls.durNS = append(ls.durNS, float64(s.dur()))
		ls.sumNS += float64(s.dur())
		ls.selfNS += float64(self[s.TraceID+"/"+s.ID])
	}
	return out
}

// joinClient matches each client span to the server root span flosd opened
// under it (the span whose parent is the client span) and returns, per
// joined pair, the client duration minus the server root duration — the
// time spent on the wire, in the kernel, and in the client itself.
func joinClient(client, server []span) (transportNS []float64, unjoined int) {
	roots := make(map[string]span, len(client))
	for _, s := range server {
		roots[s.TraceID+"/"+s.Parent] = s
	}
	for _, c := range client {
		r, ok := roots[c.TraceID+"/"+c.ID]
		if !ok {
			unjoined++
			continue
		}
		transportNS = append(transportNS, float64(c.dur()-r.dur()))
	}
	return transportNS, unjoined
}
