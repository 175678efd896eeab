package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"flos/internal/gen"
	"flos/internal/livegraph"
)

func postJSON(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode
}

// TestTopKBatchHappyPath: a batch answer must agree slot by slot with the
// single-query endpoint.
func TestTopKBatchHappyPath(t *testing.T) {
	ts := newTestServer(t, false)
	var body batchBody
	code := postJSON(t, ts.URL+"/topk/batch",
		`{"queries":[1,500,1999],"measure":"rwr","k":5}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if body.Count != 3 || body.Errors != 0 || len(body.Results) != 3 {
		t.Fatalf("count=%d errors=%d len=%d, want 3/0/3", body.Count, body.Errors, len(body.Results))
	}
	for i, q := range []int{1, 500, 1999} {
		slot := body.Results[i]
		if int(slot.Query) != q || slot.Error != "" || !slot.Exact || len(slot.Results) != 5 {
			t.Fatalf("slot %d: %+v", i, slot)
		}
		var single topKBody
		if code := getJSON(t, fmt.Sprintf("%s/topk?q=%d&measure=rwr&k=5", ts.URL, q), &single); code != http.StatusOK {
			t.Fatalf("single query %d: status %d", q, code)
		}
		if !reflect.DeepEqual(slot.Results, single.Results) {
			t.Fatalf("q=%d: batch ranking %v != single ranking %v", q, slot.Results, single.Results)
		}
	}
}

// TestTopKBatchPerQueryError: an out-of-range node fails its own slot with
// a 200 response; its neighbors still get answers.
func TestTopKBatchPerQueryError(t *testing.T) {
	ts := newTestServer(t, false)
	var body batchBody
	code := postJSON(t, ts.URL+"/topk/batch",
		`{"queries":[3,1000000],"measure":"php","k":3}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if body.Errors != 1 {
		t.Fatalf("errors=%d, want 1", body.Errors)
	}
	if body.Results[0].Error != "" || len(body.Results[0].Results) != 3 {
		t.Fatalf("good slot poisoned: %+v", body.Results[0])
	}
	if body.Results[1].Error == "" || len(body.Results[1].Results) != 0 {
		t.Fatalf("bad slot did not fail: %+v", body.Results[1])
	}
}

// TestTopKBatchCached: repeating a batch serves the slots from the result
// cache.
func TestTopKBatchCached(t *testing.T) {
	ts := newTestServer(t, false)
	const req = `{"queries":[7,8],"measure":"ei","k":4}`
	var first, second batchBody
	if code := postJSON(t, ts.URL+"/topk/batch", req, &first); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/topk/batch", req, &second); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Errorf("slot %d not cached on repeat", i)
		}
		if !reflect.DeepEqual(first.Results[i].Results, second.Results[i].Results) {
			t.Errorf("slot %d: cached ranking differs", i)
		}
	}
}

// TestTopKBatchBadRequests: batch-level mistakes are rejected wholesale.
func TestTopKBatchBadRequests(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{MaxBatch: 4})
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"queries":`},
		{"empty queries", `{"queries":[]}`},
		{"over max batch", `{"queries":[1,2,3,4,5]}`},
		{"bad measure", `{"queries":[1],"measure":"nope"}`},
		{"bad k", `{"queries":[1],"k":-2}`},
		{"bad params", `{"queries":[1],"measure":"rwr","c":1.5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var eb errorBody
			if code := postJSON(t, ts.URL+"/topk/batch", tc.body, &eb); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (error %q)", code, eb.Error)
			}
			if eb.Error == "" {
				t.Fatal("400 without an error message")
			}
		})
	}

	// Wrong method: GET is not allowed.
	resp, err := http.Get(ts.URL + "/topk/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

// TestGraphEdgesRejectsDegreeOverflow covers the one non-finite input JSON can
// carry: two finite weights whose sum overflows a node's degree. The batch is
// rejected 400 and publishes nothing.
func TestGraphEdgesRejectsDegreeOverflow(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(livegraph.New(g), Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	overflow := `{"ops":[{"op":"set","u":0,"v":1,"w":1.7e308},{"op":"set","u":0,"v":2,"w":1.7e308}]}`
	if code := postJSON(t, ts.URL+"/v1/graph/edges", overflow, nil); code != http.StatusBadRequest {
		t.Fatalf("overflowing batch: code %d, want 400", code)
	}
	var body graphEdgesBody
	if code := postJSON(t, ts.URL+"/v1/graph/edges", `{"ops":[{"op":"set","u":0,"v":1,"w":2}]}`, &body); code != http.StatusOK {
		t.Fatalf("valid batch: code %d", code)
	}
	if body.Epoch != 2 {
		t.Fatalf("epoch %d after a rejected and a valid batch, want 2", body.Epoch)
	}
}
