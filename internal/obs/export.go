// Exporters: Chrome trace-event JSON, plain-text summary, and a
// chronological timeline. All output is a pure function of the
// recorded data — iteration is over insertion-ordered slices (never
// bare map ranges) and numbers are formatted with fixed rules — so a
// deterministic run exports byte-identical files every time.
package obs

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// WriteChromeTrace emits the retained spans as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents wrapper), loadable in
// chrome://tracing and Perfetto. Each track becomes a thread (tid in
// first-appearance order) under one process; spans are "X" complete
// events, instants are "i" events, and gauge samples are "C" counter
// events. Timestamps are virtual microseconds.
func (o *Obs) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		return fmt.Errorf("obs: nil domain")
	}
	if !o.retain {
		return fmt.Errorf("obs: trace retention not enabled (call EnableTrace before the workload)")
	}
	tids := map[string]int{}
	var order []string
	tid := func(track string) int {
		id, ok := tids[track]
		if !ok {
			id = len(tids) + 1
			tids[track] = id
			order = append(order, track)
		}
		return id
	}
	for _, s := range o.spans {
		tid(s.Track)
	}

	ew := &errWriter{w: w}
	ew.printf("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			ew.printf(",\n")
		}
		first = false
		ew.printf("%s", line)
	}
	for _, track := range order {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tids[track], strconv.Quote(track)))
	}
	for _, s := range o.spans {
		args := ""
		for i, a := range s.Args {
			if i > 0 {
				args += ","
			}
			args += fmt.Sprintf("%s:%d", strconv.Quote(a.Key), a.Val)
		}
		if s.Instant {
			emit(fmt.Sprintf(`{"ph":"i","pid":1,"tid":%d,"ts":%s,"s":"t","name":%s,"cat":%s,"args":{%s}}`,
				tids[s.Track], usec(s.Start), strconv.Quote(s.Name), strconv.Quote(s.Cat), args))
			continue
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":%s,"args":{%s}}`,
			tids[s.Track], usec(s.Start), usec(s.Dur), strconv.Quote(s.Name), strconv.Quote(s.Cat), args))
	}
	for _, name := range o.gaugeOrder {
		g := o.gauges[name]
		for _, smp := range g.samples {
			emit(fmt.Sprintf(`{"ph":"C","pid":1,"tid":0,"ts":%s,"name":%s,"args":{"value":%d}}`,
				usec(smp.T), strconv.Quote(g.Name), smp.V))
		}
	}
	ew.printf("\n]}\n")
	return ew.err
}

// usec renders a virtual time as decimal microseconds (Chrome's unit)
// with nanosecond precision preserved.
func usec(t sim.Time) string {
	ns := int64(t)
	if ns%1000 == 0 {
		return strconv.FormatInt(ns/1000, 10)
	}
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// WriteSummary renders the metrics-only view: per-(track, category)
// span rollups with utilization against the elapsed virtual time, then
// counters, gauges, and histograms, all in first-appearance order.
// Works in both retention modes.
func (o *Obs) WriteSummary(w io.Writer) {
	if o == nil {
		return
	}
	now := o.k.Now()
	fmt.Fprintf(w, "Observability summary (virtual time %.3fs)\n", now.Seconds())
	if len(o.aggOrder) > 0 {
		fmt.Fprintf(w, "  %-18s %-16s %8s %12s %12s %6s\n", "track", "category", "count", "total", "mean", "util")
		for _, a := range o.aggOrder {
			mean := sim.Time(0)
			if a.Count > 0 {
				mean = a.Total / sim.Time(a.Count)
			}
			util := 0.0
			if now > 0 {
				util = 100 * float64(a.Total) / float64(now)
			}
			fmt.Fprintf(w, "  %-18s %-16s %8d %11.3fs %11.6fs %5.1f%%\n",
				a.Track, a.Cat, a.Count, a.Total.Seconds(), mean.Seconds(), util)
		}
	}
	if cs := o.Counters(); len(cs) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		for _, c := range cs {
			fmt.Fprintf(w, "    %-38s %12d\n", c.Name, c.Value())
		}
	}
	if gs := o.Gauges(); len(gs) > 0 {
		fmt.Fprintf(w, "  gauges (last / max):\n")
		for _, g := range gs {
			fmt.Fprintf(w, "    %-38s %6d / %6d\n", g.Name, g.Value(), g.max)
		}
	}
	if hs := o.Histograms(); len(hs) > 0 {
		fmt.Fprintf(w, "  histograms:\n")
		for _, h := range hs {
			fmt.Fprintf(w, "    %-38s n=%-6d mean=%.6fs buckets:", h.Name, h.N, h.Mean().Seconds())
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Fprintf(w, " ≤%s:%d", shortDur(h.Bounds[i]), c)
				} else {
					fmt.Fprintf(w, " >%s:%d", shortDur(h.Bounds[len(h.Bounds)-1]), c)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

func shortDur(t sim.Time) string {
	switch {
	case t >= sim.Time(1e9) && int64(t)%1e9 == 0:
		return fmt.Sprintf("%ds", int64(t)/1e9)
	case t >= sim.Time(1e6) && int64(t)%1e6 == 0:
		return fmt.Sprintf("%dms", int64(t)/1e6)
	default:
		return fmt.Sprintf("%dus", int64(t)/1e3)
	}
}

// WriteTimelineFiltered renders the retained spans chronologically (by
// start time, emission order breaking ties). A span is shown when its
// track is in tracks AND its category is in cats; an empty slice leaves
// that dimension unfiltered.
func (o *Obs) WriteTimelineFiltered(w io.Writer, tracks, cats []string) {
	if o == nil {
		return
	}
	wantCat := map[string]bool{}
	for _, c := range cats {
		wantCat[c] = true
	}
	wantTrack := map[string]bool{}
	for _, t := range tracks {
		wantTrack[t] = true
	}
	idx := make([]int, 0, len(o.spans))
	for i, s := range o.spans {
		if len(wantCat) > 0 && !wantCat[s.Cat] {
			continue
		}
		if len(wantTrack) > 0 && !wantTrack[s.Track] {
			continue
		}
		idx = append(idx, i)
	}
	// Spans are recorded at completion; sort by start for the timeline.
	// Stable insertion sort keeps emission order on equal starts.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && o.spans[idx[j]].Start < o.spans[idx[j-1]].Start; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	fmt.Fprintf(w, "Timeline (%d events)\n", len(idx))
	for _, i := range idx {
		s := o.spans[i]
		if s.Instant {
			fmt.Fprintf(w, "  [%9.3fs          ] %-18s %-16s %s", s.Start.Seconds(), s.Track, s.Cat, s.Name)
		} else {
			fmt.Fprintf(w, "  [%9.3fs +%7.3fs] %-18s %-16s %s", s.Start.Seconds(), s.Dur.Seconds(), s.Track, s.Cat, s.Name)
		}
		for _, a := range s.Args {
			fmt.Fprintf(w, " %s=%d", a.Key, a.Val)
		}
		fmt.Fprintln(w)
	}
}
