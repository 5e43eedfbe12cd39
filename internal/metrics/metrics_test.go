package metrics

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nls.inner")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("nls.inner") != c {
		t.Fatal("Counter not idempotent per name")
	}
	g := r.Gauge("relerr")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Set(-1.5)
	if g.Value() != -1.5 {
		t.Fatal("gauge cannot go negative")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1..1000 ms uniformly: quantiles should land within one bucket
	// (ratio 2^1/4 ≈ 19%) of the true value.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-3)
	}
	s := h.stats()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if got, want := s.Sum, 500.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	for _, tc := range []struct{ q, got, want float64 }{
		{0.5, s.P50, 0.500}, {0.9, s.P90, 0.900}, {0.99, s.P99, 0.990},
	} {
		if tc.got < tc.want*0.8 || tc.got > tc.want*1.25 {
			t.Fatalf("q%.2f = %v, want within ~20%% of %v", tc.q, tc.got, tc.want)
		}
	}
	// Extremes clamp to observed min/max.
	if got := h.quantileLocked(0); got != 1e-3 {
		t.Fatalf("q0 = %v, want min 1e-3", got)
	}
	if got := h.quantileLocked(1); got != 1.0 {
		t.Fatalf("q1 = %v, want max 1.0", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.quantileLocked(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(-5) // clamped to 0
	h.Observe(0)
	if s := h.stats(); s.Count != 2 || s.Sum != 0 {
		t.Fatalf("count=%d sum=%v after clamped observes", s.Count, s.Sum)
	}
	if got := h.quantileLocked(0.5); got != 0 {
		t.Fatalf("all-zero q50 = %v", got)
	}
	// A value beyond the top bucket still clamps to observed max.
	h2 := &Histogram{}
	h2.Observe(1e12)
	if got := h2.quantileLocked(0.5); got != 1e12 {
		t.Fatalf("overflow bucket q50 = %v, want clamp to max", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", g)).Add(2)
				r.Gauge("last").Set(float64(i))
				r.Histogram("lat").Observe(float64(i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat").stats().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 9 {
		t.Fatalf("%d counters in snapshot, want 9", len(snap.Counters))
	}
}

func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Counter("a.count").Add(1)
	r.Gauge("relerr").Set(0.5)
	r.Histogram("lat").Observe(0.01)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"a.count", "b.count", "relerr", "lat"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("snapshot text missing %q:\n%s", want, out)
		}
	}
	// Counters render sorted by name.
	if ai, bi := bytes.Index(buf.Bytes(), []byte("a.count")), bytes.Index(buf.Bytes(), []byte("b.count")); ai > bi {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}
