package dump

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// waterfallWidth is the bar width of the -request waterfall.
const waterfallWidth = 48

// Waterfall renders one traced request: its stage intervals as a
// time-aligned waterfall over [submit, end], followed by the
// critical-path breakdown whose per-stage durations sum exactly to the
// end-to-end latency (the invariant the trace layer guarantees).
func Waterfall(w io.Writer, t *obs.Tracer, id int64) error {
	tr := t.Request(id)
	if tr == nil {
		return fmt.Errorf("dump: no retained trace for request %d (aged out or never completed)", id)
	}
	lat := tr.Latency()
	fmt.Fprintf(w, "Request %d (%s): submitted t=%.3fs, latency %v", tr.ID, tr.Class, tr.Submit.Seconds(), lat)
	if tr.Deadline > 0 {
		state := "met"
		if tr.End > tr.Deadline {
			state = "MISSED"
		}
		fmt.Fprintf(w, ", deadline t=%.3fs %s", tr.Deadline.Seconds(), state)
	}
	if tr.Err != "" {
		fmt.Fprintf(w, ", error: %s", tr.Err)
	}
	fmt.Fprintln(w)

	span := tr.End - tr.Submit
	pos := func(ts sim.Time) int {
		if span <= 0 {
			return 0
		}
		p := int(int64(ts-tr.Submit) * waterfallWidth / int64(span))
		if p < 0 {
			p = 0
		}
		if p > waterfallWidth {
			p = waterfallWidth
		}
		return p
	}
	for _, s := range tr.Stages {
		a, b := pos(s.Start), pos(s.End)
		bar := strings.Repeat(" ", a) + "|"
		if b > a {
			bar = strings.Repeat(" ", a) + strings.Repeat("=", b-a)
		}
		label := s.Kind.String()
		if note := s.Note(); note != "" {
			label += " (" + note + ")"
		}
		fmt.Fprintf(w, "  %-*s  %-34s %12v\n", waterfallWidth, bar, label, s.End-s.Start)
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "  (%d further stages dropped at the per-request cap)\n", tr.Dropped)
	}

	fmt.Fprintf(w, "critical path:\n")
	var sum sim.Time
	for k, d := range tr.Breakdown() {
		if d <= 0 {
			continue
		}
		sum += d
		pct := 0.0
		if lat > 0 {
			pct = 100 * float64(d) / float64(lat)
		}
		fmt.Fprintf(w, "  %-16s %12v  %5.1f%%\n", obs.Kind(k).String(), d, pct)
	}
	fmt.Fprintf(w, "  %-16s %12v  (equals end-to-end latency: %v)\n", "sum", sum, lat == sum)
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("dump: request %d: %w", id, err)
	}
	return nil
}

// Slowest renders the per-class slowest-request exemplars with their
// dominant critical-path stages.
func Slowest(w io.Writer, t *obs.Tracer, k int) {
	if k <= 0 {
		k = 5
	}
	started, sealed, stages := t.Counts()
	fmt.Fprintf(w, "Slowest requests (%d traced, %d completed, %d stages recorded):\n", started, sealed, stages)
	classes := t.Classes()
	if len(classes) == 0 {
		fmt.Fprintf(w, "  (no completed traced requests)\n")
		return
	}
	for _, c := range classes {
		fmt.Fprintf(w, "  class %s:\n", c)
		for _, tr := range t.Slowest(c, k) {
			// The two largest critical-path contributors tell the story.
			type kv struct {
				kind obs.Kind
				d    sim.Time
			}
			var top []kv
			for kind, d := range tr.Breakdown() {
				if d > 0 {
					top = append(top, kv{obs.Kind(kind), d})
				}
			}
			slices.SortFunc(top, func(a, b kv) int {
				return cmp.Or(cmp.Compare(b.d, a.d), cmp.Compare(a.kind, b.kind))
			})
			if len(top) > 2 {
				top = top[:2]
			}
			var parts []string
			for _, e := range top {
				parts = append(parts, fmt.Sprintf("%s %v", e.kind, e.d))
			}
			status := "ok"
			if tr.Err != "" {
				status = "error"
			} else if tr.Deadline > 0 && tr.End > tr.Deadline {
				status = "deadline-miss"
			}
			fmt.Fprintf(w, "    #%-4d latency %12v  %-13s %s\n", tr.ID, tr.Latency(), status, strings.Join(parts, ", "))
		}
	}
}
