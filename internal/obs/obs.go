// Package obs is the virtual-time observability subsystem: spans,
// counters, gauges, and histograms keyed to the simulation kernel's
// clock.
//
// Every timestamp comes from sim.Kernel.Now() — never the wall clock —
// so a trace of a deterministic run is itself deterministic:
// byte-identical across repeated runs and across hosts. That makes
// trace diffs meaningful (any change is a behavior change, not jitter)
// and lets the crash-injection matrix run fully instrumented without
// perturbing the durability model.
//
// Two retention modes:
//
//   - Metrics-only (the default): spans are folded into per-(track,
//     category) aggregates (count + total duration) in O(1) space.
//     This is what the benchmark tables consume via CatTotal, and it is
//     cheap enough to leave on everywhere, including soak tests.
//   - Full trace (EnableTrace): every span and instant event is
//     retained for export as Chrome trace-event JSON (WriteChromeTrace)
//     or a plain-text timeline/summary (WriteTimelineFiltered, WriteSummary).
//
// All methods are safe on a nil *Obs (they do nothing and return zero
// values), so components can be instrumented unconditionally. Mutation
// is not locked: in the simulation all activity happens inside kernel
// procs, which run one at a time with channel handoffs establishing
// happens-before, matching the existing stats-field style.
package obs

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Arg is one integer key/value annotation on a span or instant event.
// Values are int64 only — enough for block numbers, byte counts, tags —
// which keeps export formatting trivially deterministic.
type Arg struct {
	Key string
	Val int64
}

// A span is one closed interval of virtual time on a named track.
// Track is the emitting component ("RZ57-main", "tertiary.io");
// Cat is the operation class ("disk.read", "fp.write") that aggregation
// and the benchmark tables key on; Name is the human-readable label.
// Instant marks a zero-duration point event (cache hit, power cut).
type span struct {
	Track, Cat, Name string
	Start, Dur       sim.Time
	Instant          bool
	Args             []Arg
}

// SpanAgg is the metrics-only rollup of one (track, category) pair.
type SpanAgg struct {
	Track, Cat string
	Count      int64
	Total      sim.Time
}

// Counter is a monotonically increasing int64.
type Counter struct {
	Name string
	v    *int64 // its own count, or the Stats field it adopted (Adopt)
}

// Add increases the counter. Safe on a nil receiver.
func (c *Counter) Add(d int64) {
	if c != nil {
		*c.v += d
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return *c.v
}

// Gauge is a sampled instantaneous value (queue depth, lines in use).
// When the owning Obs retains a full trace, every Set records a
// timestamped sample so exporters can draw the timeline.
type Gauge struct {
	Name    string
	v, max  int64
	o       *Obs
	samples []gaugeSample
}

type gaugeSample struct {
	T sim.Time
	V int64
}

// Set records the gauge's current value. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
	if g.o != nil && g.o.retain {
		g.samples = append(g.samples, gaugeSample{T: g.o.Now(), V: v})
	}
}

// Value returns the last value set (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram buckets virtual-time durations. Bounds are the inclusive
// upper edges of the first len(Bounds) buckets; the last bucket is
// unbounded.
type Histogram struct {
	Name   string
	Bounds []sim.Time
	Counts []int64
	N      int64
	Sum    sim.Time
}

// LatencyBounds is the default bucket layout for request latencies:
// 1ms / 10ms / 100ms / 1s / 10s / 100s / +inf.
var LatencyBounds = []sim.Time{
	sim.Time(1e6), sim.Time(1e7), sim.Time(1e8),
	sim.Time(1e9), sim.Time(1e10), sim.Time(1e11),
}

// Observe adds one duration. Safe on a nil receiver, and on a
// hand-built histogram whose Counts slice was never sized (one bucket
// per bound plus the unbounded overflow bucket).
func (h *Histogram) Observe(d sim.Time) {
	if h == nil {
		return
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		nc := make([]int64, len(h.Bounds)+1)
		copy(nc, h.Counts)
		h.Counts = nc
	}
	i := sort.Search(len(h.Bounds), func(i int) bool { return d <= h.Bounds[i] })
	h.Counts[i]++
	h.N++
	h.Sum += d
}

// Mean returns the average observed duration (0 if empty or nil).
func (h *Histogram) Mean() sim.Time {
	if h == nil || h.N == 0 {
		return 0
	}
	return h.Sum / sim.Time(h.N)
}

// quantile estimates the p-quantile (0 < p <= 1) of the observed
// durations from the bucket counts, interpolating linearly within the
// bucket that holds the target rank (bucket lower edge .. upper edge).
// The unbounded last bucket is clamped to its lower edge, so a p99 of
// an overflowing histogram reports "at least the largest bound".
// Returns 0 for an empty or nil histogram. Out-of-range p clamps to
// [0, 1]; NaN clamps to 0 (the smallest retained rank) rather than
// poisoning the interpolation.
func (h *Histogram) quantile(p float64) sim.Time {
	if h == nil || h.N == 0 {
		return 0
	}
	if len(h.Bounds) == 0 {
		return h.Mean() // degenerate single-bucket histogram
	}
	if p <= 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// rank is the 1-based index of the target observation.
	rank := p * float64(h.N)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		var lo, hi sim.Time
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i < len(h.Bounds) {
			hi = h.Bounds[i]
		} else {
			// Overflow bucket: no upper edge to interpolate toward.
			return h.Bounds[len(h.Bounds)-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + sim.Time(frac*float64(hi-lo))
	}
	return h.Bounds[len(h.Bounds)-1] // unreachable for consistent counts
}

// P50 is the median observed duration.
func (h *Histogram) P50() sim.Time { return h.quantile(0.50) }

// P99 is the 99th-percentile observed duration.
func (h *Histogram) P99() sim.Time { return h.quantile(0.99) }

// Obs is one observability domain: a registry of spans, counters,
// gauges, and histograms sharing a kernel clock. The zero value is not
// usable; call New. A nil *Obs is valid everywhere and inert.
type Obs struct {
	k      *sim.Kernel
	retain bool

	spans []span

	aggOrder []*SpanAgg // first-appearance order
	aggs     map[aggKey]*SpanAgg

	counterOrder []string
	counters     map[string]*Counter

	gaugeOrder []string
	gauges     map[string]*Gauge

	histOrder []string
	hists     map[string]*Histogram
}

// aggKey names one aggregate; a struct key, so finding the aggregate of a
// span builds no string.
type aggKey struct{ track, cat string }

// New creates an observability domain on the given kernel's clock.
func New(k *sim.Kernel) *Obs {
	return &Obs{
		k:        k,
		aggs:     map[aggKey]*SpanAgg{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// EnableTrace switches from metrics-only aggregation to full span
// retention (required for WriteChromeTrace / WriteTimelineFiltered). Spans
// emitted before the call are not retroactively retained.
func (o *Obs) EnableTrace() {
	if o != nil {
		o.retain = true
	}
}

// Now returns the kernel's virtual clock (0 for nil).
func (o *Obs) Now() sim.Time {
	if o == nil {
		return 0
	}
	return o.k.Now()
}

// Span records an interval from start to the current virtual time on
// track, classified under cat. Call it at the *end* of the operation.
// args is copied only when spans are retained, so it stays on the caller's
// stack: a call on a nil or metrics-only domain allocates nothing.
func (o *Obs) Span(track, cat, name string, start sim.Time, args ...Arg) {
	if o == nil {
		return
	}
	o.record(span{Track: track, Cat: cat, Name: name, Start: start, Dur: o.k.Now() - start}, args)
}

// Instant records a zero-duration point event at the current virtual
// time. Instants count toward CatCount but contribute no duration.
func (o *Obs) Instant(track, cat, name string, args ...Arg) {
	if o == nil {
		return
	}
	o.record(span{Track: track, Cat: cat, Name: name, Start: o.k.Now(), Instant: true}, args)
}

func (o *Obs) record(s span, args []Arg) {
	key := aggKey{s.Track, s.Cat}
	a := o.aggs[key]
	if a == nil {
		a = &SpanAgg{Track: s.Track, Cat: s.Cat}
		o.aggs[key] = a
		o.aggOrder = append(o.aggOrder, a)
	}
	a.Count++
	a.Total += s.Dur
	if o.retain {
		s.Args = append([]Arg(nil), args...)
		o.spans = append(o.spans, s)
	}
}

// Counter returns (creating on first use) the named counter. Returns
// nil — itself safe to use — when o is nil.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	c := o.counters[name]
	if c == nil {
		c = &Counter{Name: name, v: new(int64)}
		o.counters[name] = c
		o.counterOrder = append(o.counterOrder, name)
	}
	return c
}

// Adopt makes the named counter read *v, a field of a component's Stats
// struct, so that an event the component counts is counted once. The
// field keeps counting with no domain attached.
func (o *Obs) Adopt(name string, v *int64) {
	if c := o.Counter(name); c != nil {
		c.v = v
	}
}

// Gauge returns (creating on first use) the named gauge.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	g := o.gauges[name]
	if g == nil {
		g = &Gauge{Name: name, o: o}
		o.gauges[name] = g
		o.gaugeOrder = append(o.gaugeOrder, name)
	}
	return g
}

// Histogram returns (creating on first use) the named histogram with
// the given bucket bounds; bounds are ignored if it already exists.
func (o *Obs) Histogram(name string, bounds []sim.Time) *Histogram {
	if o == nil {
		return nil
	}
	h := o.hists[name]
	if h == nil {
		h = &Histogram{Name: name, Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
		o.hists[name] = h
		o.histOrder = append(o.histOrder, name)
	}
	return h
}

// CatTotal sums the recorded span durations of one category across all
// tracks. This is what the benchmark tables are derived from.
func (o *Obs) CatTotal(cat string) sim.Time {
	if o == nil {
		return 0
	}
	var t sim.Time
	for _, a := range o.aggOrder {
		if a.Cat == cat {
			t += a.Total
		}
	}
	return t
}

// CatCount sums the recorded span/instant counts of one category.
func (o *Obs) CatCount(cat string) int64 {
	if o == nil {
		return 0
	}
	var n int64
	for _, a := range o.aggOrder {
		if a.Cat == cat {
			n += a.Count
		}
	}
	return n
}

// Aggregates returns the per-(track, category) rollups in first-
// appearance order.
func (o *Obs) Aggregates() []*SpanAgg {
	if o == nil {
		return nil
	}
	return append([]*SpanAgg(nil), o.aggOrder...)
}

// Counters returns every counter in first-appearance order.
func (o *Obs) Counters() []*Counter {
	if o == nil {
		return nil
	}
	out := make([]*Counter, 0, len(o.counterOrder))
	for _, name := range o.counterOrder {
		out = append(out, o.counters[name])
	}
	return out
}

// Gauges returns every gauge in first-appearance order.
func (o *Obs) Gauges() []*Gauge {
	if o == nil {
		return nil
	}
	out := make([]*Gauge, 0, len(o.gaugeOrder))
	for _, name := range o.gaugeOrder {
		out = append(out, o.gauges[name])
	}
	return out
}

// Histograms returns every histogram in first-appearance order.
func (o *Obs) Histograms() []*Histogram {
	if o == nil {
		return nil
	}
	out := make([]*Histogram, 0, len(o.histOrder))
	for _, name := range o.histOrder {
		out = append(out, o.hists[name])
	}
	return out
}
