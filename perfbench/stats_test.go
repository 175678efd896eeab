package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n          int
		q          float64
		rank       int
		beyond     int
		reportable bool
	}{
		{1000, 0.99, 990, 10, true}, // exactly ten samples above p99
		{999, 0.99, 990, 9, false},  // one short
		{2000, 0.99, 1980, 20, true},
		{100, 0.99, 99, 1, false},
		{1000, 0.5, 500, 500, true},
		{1, 0.5, 1, 0, false},
		{0, 0.99, 0, 0, false},
	} {
		if c.n > 0 {
			if r := rank(c.n, c.q); r != c.rank {
				t.Errorf("rank(%d, %g) = %d, want %d", c.n, c.q, r, c.rank)
			}
			if b := beyond(c.n, c.q); b != c.beyond {
				t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, b, c.beyond)
			}
		}
		if r := reportable(c.n, c.q); r != c.reportable {
			t.Errorf("reportable(%d, %g) = %v, want %v", c.n, c.q, r, c.reportable)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true},
		{2000, 0.995, true},
		{100, 0.9, true},
		{11, 1.0 / 11, true},
		{10, 0, false},
		{0, 0, false},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		// The percentile it returns leaves exactly minBeyond samples above.
		if ok && beyond(c.n, got) != minBeyond {
			t.Errorf("highestPercentile(%d) = %g leaves %d beyond, want %d", c.n, got, beyond(c.n, got), minBeyond)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1; quantile must not depend on order
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("quantile sorted its input in place")
	}
	// A failed request counts as +Inf, so it lands above every latency limit.
	xs[0] = math.Inf(1)
	if got := quantile(xs, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %g, want +Inf", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
}

func TestWindowed(t *testing.T) {
	// Seven windows of 100 samples; one window is uniformly slow. The
	// median over windows ignores it where the pooled quantile does not.
	var xs []float64
	for w := 0; w < 7; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 3 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	if got := windowed(xs, 0.5, 100); got != 50 {
		t.Errorf("windowed p50 = %g, want 50", got)
	}
	if got := quantile(xs, 0.9); got <= 100 {
		t.Errorf("pooled p90 = %g, want the slow window to show", got)
	}
	if got := windowed(xs, 0.9, 100); got != 90 {
		t.Errorf("windowed p90 = %g, want 90", got)
	}
	// Too few samples for two windows: the plain quantile.
	if got, want := windowed(xs[:150], 0.5, 100), quantile(xs[:150], 0.5); got != want {
		t.Errorf("windowed on 150 samples = %g, want plain %g", got, want)
	}
	// An even window count drops to the next odd one.
	if got := windowed(xs[:400], 0.5, 100); got != 50 {
		t.Errorf("windowed over 4 windows' worth = %g, want 50", got)
	}
}
