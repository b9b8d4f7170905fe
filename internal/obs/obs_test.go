package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// run executes fn inside a proc on a fresh kernel and returns the obs
// domain that was live during it.
func run(t *testing.T, retain bool, fn func(p *sim.Proc, o *Obs)) *Obs {
	t.Helper()
	k := sim.NewKernel()
	o := New(k)
	if retain {
		o.EnableTrace()
	}
	k.RunProc(func(p *sim.Proc) { fn(p, o) })
	k.Stop()
	return o
}

func TestNilObsIsInert(t *testing.T) {
	var o *Obs
	o.Span("t", "c", "n", 0)
	o.Instant("t", "c", "n")
	o.EnableTrace()
	o.Counter("x").Add(5)
	o.Gauge("g").Set(7)
	o.Histogram("h", LatencyBounds).Observe(sim.Time(1e6))
	if o.CatTotal("c") != 0 || o.CatCount("c") != 0 {
		t.Fatal("nil Obs recorded something")
	}
	if o.Counter("x").Value() != 0 || o.Gauge("g").Value() != 0 || o.Gauge("g").Max() != 0 {
		t.Fatal("nil-backed instruments returned nonzero values")
	}
	if o.Histogram("h", LatencyBounds).Mean() != 0 {
		t.Fatal("nil histogram has a mean")
	}
	if o.Spans() != nil || o.Aggregates() != nil {
		t.Fatal("nil Obs exposes state")
	}
	if err := o.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil Obs exported a trace")
	}
}

// TestSpanFreeWhenOff pins ROADMAP item 4's "free when off": with tracing
// off (a nil domain, or a metrics-only one whose aggregate already exists)
// Span and Instant allocate nothing, their argument lists included; the
// list is copied only when spans are retained.
func TestSpanFreeWhenOff(t *testing.T) {
	var off *Obs
	on := New(sim.NewKernel())
	for name, o := range map[string]*Obs{"nil": off, "metrics-only": on} {
		emit := func() {
			o.Span("t", "c", "n", 0, Arg{Key: "tag", Val: 7}, Arg{Key: "seg", Val: 9})
			o.Instant("t", "i", "n", Arg{Key: "tag", Val: 7})
		}
		emit() // creates the two aggregates
		if n := testing.AllocsPerRun(100, emit); n != 0 {
			t.Errorf("%s domain: Span+Instant allocate %v times per call, want 0", name, n)
		}
	}
	if on.CatCount("c") == 0 || on.Spans() != nil {
		t.Fatal("metrics-only domain did not aggregate, or retained spans")
	}
	on.EnableTrace()
	args := []Arg{{Key: "tag", Val: 7}}
	on.Span("t", "c", "n", 0, args...)
	args[0].Val = 8 // the retained span owns a copy
	if got := on.Spans()[0].Args; len(got) != 1 || got[0].Val != 7 {
		t.Fatalf("retained args = %v, want a private copy of tag=7", got)
	}
}

func TestAggregation(t *testing.T) {
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		t0 := p.Now()
		p.Sleep(sim.Time(2e9))
		o.Span("disk", "disk.read", "read", t0)
		t1 := p.Now()
		p.Sleep(sim.Time(1e9))
		o.Span("disk", "disk.write", "write", t1)
		o.Instant("disk", "disk.fault", "boom")
	})
	if got := o.CatTotal("disk.read"); got != sim.Time(2e9) {
		t.Fatalf("CatTotal(disk.read) = %v, want 2s", got)
	}
	var disk sim.Time
	for _, a := range o.Aggregates() {
		if a.Track == "disk" {
			disk += a.Total
		}
	}
	if disk != sim.Time(3e9) {
		t.Fatalf("spans on track disk total %v, want 3s", disk)
	}
	if got := o.CatCount("disk.fault"); got != 1 {
		t.Fatalf("CatCount(disk.fault) = %d, want 1", got)
	}
	if len(o.Spans()) != 0 {
		t.Fatal("metrics-only mode retained spans")
	}
	aggs := o.Aggregates()
	if len(aggs) != 3 || aggs[0].Cat != "disk.read" || aggs[2].Cat != "disk.fault" {
		t.Fatalf("aggregates not in first-appearance order: %+v", aggs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		h := o.Histogram("lat", LatencyBounds)
		h.Observe(sim.Time(5e5))  // 0.5ms → bucket 0 (≤1ms)
		h.Observe(sim.Time(1e6))  // exactly 1ms → bucket 0 (inclusive edge)
		h.Observe(sim.Time(5e9))  // 5s → bucket 4 (≤10s)
		h.Observe(sim.Time(1e12)) // 1000s → overflow bucket
	})
	h := o.Histogram("lat", nil) // existing: bounds ignored
	want := []int64{2, 0, 0, 0, 1, 0, 1}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], h.Counts)
		}
	}
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
}

func TestGaugeSamplesOnlyWhenRetaining(t *testing.T) {
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		g := o.Gauge("depth")
		g.Set(3)
		g.Set(9)
		g.Set(4)
	})
	g := o.Gauge("depth")
	if g.Value() != 4 || g.Max() != 9 {
		t.Fatalf("gauge last/max = %d/%d, want 4/9", g.Value(), g.Max())
	}
	if len(g.samples) != 0 {
		t.Fatal("metrics-only gauge retained samples")
	}
	o2 := run(t, true, func(p *sim.Proc, o *Obs) {
		o.Gauge("depth").Set(3)
	})
	if len(o2.Gauge("depth").samples) != 1 {
		t.Fatal("retaining gauge dropped its sample")
	}
}

func TestChromeTraceShapeAndDeterminism(t *testing.T) {
	workload := func(p *sim.Proc, o *Obs) {
		t0 := p.Now()
		p.Sleep(sim.Time(1500)) // 1.5µs: exercises fractional usec output
		o.Span("io", "io.read", "read", t0, Arg{Key: "blk", Val: 7})
		o.Instant("svc", "svc.fault", "transient")
		o.Gauge("q").Set(2)
	}
	var outs []string
	for i := 0; i < 2; i++ {
		o := run(t, true, workload)
		var buf bytes.Buffer
		if err := o.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatal("two identical runs produced different trace bytes")
	}
	got := outs[0]
	for _, want := range []string{
		`"ph":"M"`, `"name":"io"`, // thread metadata
		`"ph":"X"`, `"dur":1.500`, `"blk":7`, // complete span, fractional µs
		`"ph":"i"`, `"s":"t"`, // instant
		`"ph":"C"`, `"value":2`, // gauge counter sample
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("trace missing %s:\n%s", want, got)
		}
	}
	if !strings.HasPrefix(got, `{"traceEvents":[`) {
		t.Fatalf("trace is not a traceEvents object:\n%s", got)
	}
}

func TestChromeTraceRequiresRetention(t *testing.T) {
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		o.Instant("t", "c", "n")
	})
	if err := o.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("export without EnableTrace should fail")
	}
}

func TestTimelineFilterAndOrder(t *testing.T) {
	o := run(t, true, func(p *sim.Proc, o *Obs) {
		// Span A starts first but is recorded after B (recorded at end).
		a0 := p.Now()
		p.Sleep(sim.Time(1e9))
		b0 := p.Now()
		p.Sleep(sim.Time(1e9))
		o.Span("x", "keep", "B", b0)
		o.Span("x", "keep", "A", a0)
		o.Instant("x", "drop", "C")
	})
	var buf bytes.Buffer
	o.WriteTimelineFiltered(&buf, nil, []string{"keep"})
	out := buf.String()
	if strings.Contains(out, "C") {
		t.Fatalf("filtered category leaked into timeline:\n%s", out)
	}
	ia, ib := strings.Index(out, "A"), strings.Index(out, "B")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("timeline not sorted by start time:\n%s", out)
	}
	if !strings.Contains(out, "Timeline (2 events)") {
		t.Fatalf("unexpected event count:\n%s", out)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	bounds := []sim.Time{100, 200, 300}
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		h := o.Histogram("q", bounds)
		for i := 0; i < 3; i++ {
			h.Observe(sim.Time(50)) // bucket 0 (≤100)
		}
		h.Observe(sim.Time(250)) // bucket 2 (≤300)
	})
	h := o.Histogram("q", nil)
	// p50: rank 2 of 4 lands in bucket 0 → interpolate 2/3 of [0,100).
	if got, want := h.P50(), sim.Time(66); got < want || got > want+1 {
		t.Fatalf("P50 = %v, want ~%v", got, want)
	}
	// p99: rank 3.96 lands in bucket 2 → 0.96 of [200,300).
	if got := h.P99(); got != sim.Time(296) {
		t.Fatalf("P99 = %v, want 296", got)
	}
	// p=1 fills the last occupied bucket exactly.
	if got := h.Quantile(1); got != sim.Time(300) {
		t.Fatalf("Quantile(1) = %v, want 300", got)
	}
	// Out-of-range p clamps rather than panicking.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range p not clamped")
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	bounds := []sim.Time{100, 200}
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		h := o.Histogram("ovf", bounds)
		h.Observe(sim.Time(50))
		h.Observe(sim.Time(5000)) // overflow bucket
		h.Observe(sim.Time(5000))
	})
	h := o.Histogram("ovf", nil)
	// p99 lands in the unbounded overflow bucket: clamp to the largest
	// finite bound instead of inventing a value.
	if got := h.P99(); got != sim.Time(200) {
		t.Fatalf("overflow P99 = %v, want clamp to 200", got)
	}
}

func TestHistogramQuantileEmptyAndNil(t *testing.T) {
	var h *Histogram
	if h.Quantile(0.5) != 0 || h.P50() != 0 || h.P99() != 0 {
		t.Fatal("nil histogram produced a quantile")
	}
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		o.Histogram("empty", LatencyBounds)
	})
	if got := o.Histogram("empty", nil).Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestInstrumentAccessors(t *testing.T) {
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		o.Counter("b").Add(1)
		o.Counter("a").Add(2)
		o.Gauge("g1").Set(3)
		o.Histogram("h1", LatencyBounds).Observe(sim.Time(1e6))
	})
	cs := o.Counters()
	if len(cs) != 2 || cs[0].Name != "b" || cs[1].Name != "a" {
		t.Fatalf("counters not in first-appearance order: %+v", cs)
	}
	if gs := o.Gauges(); len(gs) != 1 || gs[0].Name != "g1" {
		t.Fatalf("gauges wrong: %+v", gs)
	}
	if hs := o.Histograms(); len(hs) != 1 || hs[0].Name != "h1" {
		t.Fatalf("histograms wrong: %+v", hs)
	}
	var nilObs *Obs
	if nilObs.Counters() != nil || nilObs.Gauges() != nil || nilObs.Histograms() != nil {
		t.Fatal("nil Obs returned instruments")
	}
}

// TestAdoptReadsTheField: an adopted counter is the component's own int64,
// read where it lies; adopting on a nil domain leaves the field counting.
func TestAdoptReadsTheField(t *testing.T) {
	var hits int64
	var nilObs *Obs
	nilObs.Adopt("hits", &hits)
	hits++
	o := New(sim.NewKernel())
	o.Adopt("hits", &hits)
	hits += 2
	o.Counter("hits").Add(1)
	if got := o.Counter("hits").Value(); got != 4 || hits != 4 || len(o.Counters()) != 1 {
		t.Fatalf("adopted counter reads %d, field %d, %d counters; want 4, 4, 1", got, hits, len(o.Counters()))
	}
}

func TestTimelineTrackFilter(t *testing.T) {
	o := run(t, true, func(p *sim.Proc, o *Obs) {
		o.Instant("disk0", "io", "A")
		o.Instant("disk1", "io", "B")
		o.Instant("disk0", "meta", "C")
	})
	var buf bytes.Buffer
	o.WriteTimelineFiltered(&buf, []string{"disk0"}, nil)
	out := buf.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "C") || strings.Contains(out, "B") {
		t.Fatalf("track filter wrong:\n%s", out)
	}
	// Both dimensions compose with AND.
	buf.Reset()
	o.WriteTimelineFiltered(&buf, []string{"disk0"}, []string{"io"})
	out = buf.String()
	if !strings.Contains(out, "Timeline (1 events)") || !strings.Contains(out, "A") {
		t.Fatalf("track+cat filter wrong:\n%s", out)
	}
}

func TestSummaryListsInstruments(t *testing.T) {
	o := run(t, false, func(p *sim.Proc, o *Obs) {
		t0 := p.Now()
		p.Sleep(sim.Time(1e9))
		o.Span("disk", "disk.read", "read", t0)
		o.Counter("bytes").Add(42)
		o.Gauge("depth").Set(3)
		o.Histogram("lat", LatencyBounds).Observe(sim.Time(2e6))
	})
	var buf bytes.Buffer
	o.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"disk.read", "bytes", "42", "depth", "lat", "≤10ms:1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
