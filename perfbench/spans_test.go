package main

import (
	"strings"
	"testing"
)

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		iv     [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {30, 50}}, 30},
		{"overlapping", 0, 100, [][2]int64{{10, 40}, {30, 50}}, 40},
		{"nested", 0, 100, [][2]int64{{10, 60}, {20, 30}}, 50},
		{"unsorted", 0, 100, [][2]int64{{70, 80}, {10, 20}, {15, 25}}, 25},
		{"touching", 0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},
		{"clipped to parent", 50, 100, [][2]int64{{40, 60}, {90, 120}}, 20},
		{"outside parent", 50, 100, [][2]int64{{0, 40}, {100, 120}}, 0},
		{"whole parent", 0, 100, [][2]int64{{0, 100}, {20, 30}}, 100},
	} {
		if got := covered(c.lo, c.hi, c.iv); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// tree builds spans of one trace from (id, parent, name, start, end).
func tree(trace string, rows ...[5]any) []span {
	var out []span
	for _, r := range rows {
		out = append(out, span{TraceID: trace, ID: r[0].(string), Parent: r[1].(string), Name: r[2].(string),
			Start: int64(r[3].(int)), End: int64(r[4].(int))})
	}
	return out
}

func TestSelfTimes(t *testing.T) {
	// A server root with queue wait and execute; execute has laid-end-to-end
	// solver phases plus a page-fault aggregate overlapping the first phase.
	spans := tree("t1",
		[5]any{"srv", "client", "GET /v1/topk", 0, 1000},
		[5]any{"wait", "srv", "qserve.queue.wait", 0, 100},
		[5]any{"exec", "srv", "qserve.execute", 100, 900},
		[5]any{"expand", "exec", "solver.expand", 100, 300},
		[5]any{"solve", "exec", "solver.solve", 300, 700},
		[5]any{"fault", "exec", "disk.pagefault", 100, 250},
	)
	// A second trace reusing the same span IDs must not mix in.
	spans = append(spans, tree("t2",
		[5]any{"srv", "client", "GET /v1/topk", 0, 50},
		[5]any{"exec", "srv", "qserve.execute", 0, 50},
	)...)
	self := selfTimes(spans)
	for k, want := range map[string]int64{
		"t1/srv":    100, // 1000 - (100 + 800)
		"t1/wait":   100,
		"t1/exec":   200, // 800 - union(100..300, 300..700, 100..250) = 800 - 600
		"t1/expand": 200,
		"t1/fault":  150,
		"t2/srv":    0,
		"t2/exec":   50,
	} {
		if got := self[k]; got != want {
			t.Errorf("self[%s] = %d, want %d", k, got, want)
		}
	}
	byN := byName(spans)
	if ls := byN["qserve.execute"]; ls.count != 2 || ls.selfNS != 250 || ls.sumNS != 850 {
		t.Errorf("qserve.execute aggregate = %+v, want count 2, self 250, sum 850", *ls)
	}
}

func TestJoinClient(t *testing.T) {
	server := tree("t1", [5]any{"srv", "c1", "GET /v1/topk", 100, 400})
	client := []span{
		{TraceID: "t1", ID: "c1", Start: 0, End: 500},
		{TraceID: "t9", ID: "c9", Start: 0, End: 10}, // no server trace
	}
	transport, unjoined := joinClient(client, server)
	if len(transport) != 1 || transport[0] != 200 || unjoined != 1 {
		t.Errorf("joinClient = %v, %d unjoined; want [200], 1", transport, unjoined)
	}
}

func TestParseOTLP(t *testing.T) {
	line := `{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"scope":{"name":"x"},"spans":[` +
		`{"traceId":"aa","spanId":"01","parentSpanId":"ff","name":"GET /v1/topk","kind":2,"startTimeUnixNano":"1000","endTimeUnixNano":"5000","status":{"code":1}},` +
		`{"traceId":"aa","spanId":"02","parentSpanId":"01","name":"qserve.execute","kind":1,"startTimeUnixNano":"2000","endTimeUnixNano":"4000",` +
		`"attributes":[{"key":"kernel","value":{"stringValue":"parallel"}},{"key":"visited","value":{"intValue":"41759"}},{"key":"hit","value":{"boolValue":false}}],"status":{"code":1}}]}]}]}`
	spans, err := parseOTLP(strings.NewReader(line + "\n\n" + line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("parsed %d spans, want 4", len(spans))
	}
	e := spans[1]
	if e.Name != "qserve.execute" || e.Parent != "01" || e.dur() != 2000 ||
		e.Attrs["kernel"] != "parallel" || e.Attrs["visited"] != "41759" || e.Attrs["hit"] != "false" {
		t.Errorf("execute span = %+v", e)
	}
	if _, err := parseOTLP(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed line parsed without error")
	}
}
