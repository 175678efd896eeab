package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the same
// workloads (each "why" stating the rate and latency limit the code uses),
// and the same metric names and units in the same order.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		wl := workloads[i]
		if w.Name != wl.name {
			t.Errorf("workload %d is %q, the code's %q", i, w.Name, wl.name)
		}
		for _, s := range []string{fmt.Sprintf("%g req/s", wl.rate), fmt.Sprintf("SLO %g ms", wl.sloMS)} {
			if !strings.Contains(w.Why, s) {
				t.Errorf("%s: why %q does not state %q", w.Name, w.Why, s)
			}
		}
		if wl.live && !strings.Contains(w.Why, fmt.Sprintf("%g writes/s", wl.writeRate)) {
			t.Errorf("%s: why %q does not state the write rate", w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var setup float64
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range doc.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %g exceeds setup_s's %g", m.Name, *m.Bound, setup)
		}
	}
}
