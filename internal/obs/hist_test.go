package obs

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func msec(n int) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(msec(5)) // must not panic
	if got := nilH.quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}
	h := &Histogram{Bounds: LatencyBounds, Counts: make([]int64, len(LatencyBounds)+1)}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := h.quantile(p); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", p, got)
		}
	}
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean nonzero")
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := &Histogram{Bounds: LatencyBounds, Counts: make([]int64, len(LatencyBounds)+1)}
	h.Observe(msec(5))
	p50, p99 := h.P50(), h.P99()
	if p50 != p99 {
		t.Fatalf("single observation: p50 %v != p99 %v", p50, p99)
	}
	// The single 5 ms observation lives in the (1 ms, 10 ms] bucket; any
	// quantile must interpolate inside it.
	if p50 <= msec(1) || p50 > msec(10) {
		t.Fatalf("p50 %v outside the observation's bucket", p50)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := &Histogram{Bounds: LatencyBounds, Counts: make([]int64, len(LatencyBounds)+1)}
	for i := 0; i < 100; i++ {
		h.Observe(msec(i))
	}
	lo, hi := h.quantile(0), h.quantile(1)
	if got := h.quantile(-3); got != lo {
		t.Fatalf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, lo)
	}
	if got := h.quantile(7); got != hi {
		t.Fatalf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, hi)
	}
	if got := h.quantile(math.NaN()); got != lo {
		t.Fatalf("Quantile(NaN) = %v, want clamp to Quantile(0) = %v", got, lo)
	}
	if lo > h.P50() || h.P50() > h.P99() || h.P99() > hi {
		t.Fatalf("quantiles not monotone: %v %v %v %v", lo, h.P50(), h.P99(), hi)
	}
}

func TestHistogramOverflowBucketClamps(t *testing.T) {
	h := &Histogram{Bounds: LatencyBounds, Counts: make([]int64, len(LatencyBounds)+1)}
	h.Observe(sim.Time(1000 * time.Second)) // beyond the last bound
	want := LatencyBounds[len(LatencyBounds)-1]
	if got := h.P99(); got != want {
		t.Fatalf("overflow p99 = %v, want last bound %v", got, want)
	}
}

func TestHistogramHandBuiltCountsResize(t *testing.T) {
	// A hand-built histogram without a sized Counts slice must not panic
	// and must count into the right bucket.
	h := &Histogram{Bounds: LatencyBounds}
	h.Observe(msec(5))
	if h.N != 1 || len(h.Counts) != len(LatencyBounds)+1 {
		t.Fatalf("resize failed: N %d, %d counts", h.N, len(h.Counts))
	}
	if h.Counts[1] != 1 {
		t.Fatalf("observation landed in wrong bucket: %v", h.Counts)
	}
}
