package bench

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/migrate"
	"repro/internal/obs/attr"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/wl"
)

// Pages is one publication of the pages `hlbench -serve` answers with,
// each rendered once, when ServeMigration publishes. Everything but the
// kernel self-profile at the end of Metrics is a pure function of the
// virtual-time run and byte-reproducible.
type Pages struct {
	Metrics   []byte // Prometheus text exposition, the wall-clock kernel profile last
	Heatmap   []byte // per-segment and per-file heat (attr.Snapshot), JSON
	Decisions []byte // the most recent decision-audit entries, JSON
	Requests  []byte // per-request traces with critical-path breakdowns, JSON
}

// decisionsExported caps how many recent audit entries /decisions serves
// (the whole ring stays queryable through hldump -why).
const decisionsExported = 256

// requestsExported caps how many recent traces /requests serves (the
// per-class slowest exemplars are always included in full).
const requestsExported = 64

// renderPages renders the rig's obs registry, heat table, decision audit
// and the front end's request traces as of now. It only reads, at a point
// the simulation chose, so a run that publishes executes the same
// virtual-time schedule as one that does not.
func renderPages(r *fsRig, fe *svc.FrontEnd) *Pages {
	now := r.k.Now()
	hm := r.hl.Heat.Snapshot(now)
	return &Pages{
		Metrics:   renderMetrics(r, hm),
		Heatmap:   marshal(hm),
		Decisions: marshal(decisionsDoc{Total: r.hl.Audit.Total(), Recent: r.hl.Audit.Recent(decisionsExported)}),
		Requests:  renderRequests(fe.Tracer, now),
	}
}

type decisionsDoc struct {
	Total  int64           `json:"total"`
	Recent []attr.Decision `json:"recent"`
}

func marshal(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Every document type marshals; reaching this is a programming
		// error worth surfacing in the page rather than panicking a
		// serving process.
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return append(b, '\n')
}

// renderMetrics emits the Prometheus text exposition format. Families
// appear in a fixed order (virtual time, counters, gauges, histograms,
// span aggregates, heat, audit, then the kernel self-profile) and
// instruments in first-appearance order, so two renderings of identical
// state differ only in the profile's wall-clock figures.
func renderMetrics(r *fsRig, hm *attr.Snapshot) []byte {
	var b strings.Builder
	o := r.hl.Obs
	fmt.Fprintf(&b, "# HELP hl_virtual_time_seconds Simulation virtual clock.\n")
	fmt.Fprintf(&b, "# TYPE hl_virtual_time_seconds gauge\n")
	fmt.Fprintf(&b, "hl_virtual_time_seconds %s\n", fnum(r.k.Now().Seconds()))

	for _, c := range o.Counters() {
		name := "hl_" + sanitize(c.Name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, c.Value())
	}
	for _, g := range o.Gauges() {
		name := "hl_" + sanitize(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, g.Value())
		fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %d\n", name, name, g.Max())
	}
	for _, h := range o.Histograms() {
		name := "hl_" + sanitize(h.Name) + "_seconds"
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fnum(h.Bounds[i].Seconds())
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", name, fnum(h.Sum.Seconds()))
		fmt.Fprintf(&b, "%s_count %d\n", name, h.N)
		fmt.Fprintf(&b, "# TYPE %s_p50 gauge\n%s_p50 %s\n", name, name, fnum(h.P50().Seconds()))
		fmt.Fprintf(&b, "# TYPE %s_p99 gauge\n%s_p99 %s\n", name, name, fnum(h.P99().Seconds()))
	}
	if aggs := o.Aggregates(); len(aggs) > 0 {
		fmt.Fprintf(&b, "# TYPE hl_span_seconds_total counter\n")
		for _, a := range aggs {
			fmt.Fprintf(&b, "hl_span_seconds_total{track=%q,cat=%q} %s\n", a.Track, a.Cat, fnum(a.Total.Seconds()))
		}
		fmt.Fprintf(&b, "# TYPE hl_span_count_total counter\n")
		for _, a := range aggs {
			fmt.Fprintf(&b, "hl_span_count_total{track=%q,cat=%q} %d\n", a.Track, a.Cat, a.Count)
		}
	}
	if len(hm.Segments) > 0 {
		fmt.Fprintf(&b, "# HELP hl_segment_heat Exponentially decayed per-segment heat.\n")
		fmt.Fprintf(&b, "# TYPE hl_segment_heat gauge\n")
		for _, s := range hm.Segments {
			fmt.Fprintf(&b, "hl_segment_heat{seg=\"%d\"} %s\n", s.Tag, fnum(s.Heat))
		}
	}
	fmt.Fprintf(&b, "# TYPE hl_decisions_recorded_total counter\n")
	fmt.Fprintf(&b, "hl_decisions_recorded_total %d\n", r.hl.Audit.Total())

	// The kernel self-profile: its events/sec and dispatch figures are
	// wall-clock measurements of the simulator process, so they come last,
	// where a reproducibility check can cut them off.
	pr := r.k.ProfileSnapshot()
	fmt.Fprintf(&b, "# HELP hl_sim_events_total Wake-ups the sim kernel delivered to procs: proc switches plus self-wakes served in place.\n")
	fmt.Fprintf(&b, "# TYPE hl_sim_events_total counter\nhl_sim_events_total %d\n", pr.TotalEvents)
	fmt.Fprintf(&b, "# TYPE hl_sim_events_skipped_total counter\nhl_sim_events_skipped_total %d\n", pr.SkippedEvents)
	fmt.Fprintf(&b, "# TYPE hl_sim_heap_high_water gauge\nhl_sim_heap_high_water %d\n", pr.HeapHighWater)
	fmt.Fprintf(&b, "# TYPE hl_sim_procs gauge\nhl_sim_procs %d\n", pr.Procs)
	fmt.Fprintf(&b, "# HELP hl_sim_proc_switches_total Events the dispatcher switched to a proc's coroutine for (hl_sim_events_total less hl_sim_events_in_place_total).\n")
	fmt.Fprintf(&b, "# TYPE hl_sim_proc_switches_total counter\nhl_sim_proc_switches_total %d\n", pr.TotalSwitches)
	fmt.Fprintf(&b, "# TYPE hl_sim_events_in_place_total counter\nhl_sim_events_in_place_total %d\n", pr.InPlaceEvents)
	if pr.Enabled {
		fmt.Fprintf(&b, "# HELP hl_sim_events_per_sec Wall-clock event dispatch rate since EnableProfile.\n")
		fmt.Fprintf(&b, "# TYPE hl_sim_events_per_sec gauge\nhl_sim_events_per_sec %s\n", fnum(pr.EventsPerSec))
		fmt.Fprintf(&b, "# TYPE hl_sim_dispatch_avg_ns gauge\nhl_sim_dispatch_avg_ns %s\n", fnum(pr.AvgDispatchNs))
		fmt.Fprintf(&b, "# TYPE hl_sim_wall_ns_total counter\nhl_sim_wall_ns_total %d\n", pr.WallNs)
	}
	return []byte(b.String())
}

// fnum formats a float the same way everywhere: shortest representation
// that round-trips, fixed algorithm, no locale.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sanitize maps an instrument name ("cache.hits") onto the Prometheus
// metric-name alphabet ([a-zA-Z0-9_]).
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			return r
		}
		return '_'
	}, name)
}

// requestsDoc is the /requests JSON shape: tracer totals, the slowest
// exemplars per class with their critical-path breakdowns, and the tail
// of recently completed requests. Everything is derived from virtual
// time, so two identical runs render byte-identical documents.
type requestsDoc struct {
	VirtualTimeSeconds float64    `json:"virtual_time_seconds"`
	Started            int64      `json:"started"`
	Sealed             int64      `json:"sealed"`
	StagesRecorded     int64      `json:"stages_recorded"`
	Classes            []classDoc `json:"classes"`
	Recent             []traceDoc `json:"recent"`
}

type classDoc struct {
	Class   string     `json:"class"`
	Slowest []traceDoc `json:"slowest"`
}

type traceDoc struct {
	ID              int64              `json:"id"`
	Class           string             `json:"class"`
	SubmitSeconds   float64            `json:"submit_seconds"`
	LatencySeconds  float64            `json:"latency_seconds"`
	DeadlineSeconds float64            `json:"deadline_seconds,omitempty"`
	Error           string             `json:"error,omitempty"`
	Breakdown       map[string]float64 `json:"breakdown_seconds"`
	Stages          []stageDoc         `json:"stages"`
	DroppedStages   int                `json:"dropped_stages,omitempty"`
}

type stageDoc struct {
	Kind         string  `json:"kind"`
	Note         string  `json:"note,omitempty"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
}

func traceToDoc(tr *reqtrace.Trace) traceDoc {
	d := traceDoc{
		ID:              tr.ID,
		Class:           tr.Class,
		SubmitSeconds:   tr.Submit.Seconds(),
		LatencySeconds:  tr.Latency().Seconds(),
		DeadlineSeconds: tr.Deadline.Seconds(),
		Error:           tr.Err,
		Breakdown:       make(map[string]float64),
		Stages:          make([]stageDoc, 0, len(tr.Stages)),
		DroppedStages:   tr.Dropped,
	}
	for k, dur := range tr.Breakdown() {
		if dur > 0 {
			d.Breakdown[reqtrace.Kind(k).String()] = dur.Seconds()
		}
	}
	for _, s := range tr.Stages {
		d.Stages = append(d.Stages, stageDoc{
			Kind:         s.Kind.String(),
			Note:         s.Note,
			StartSeconds: s.Start.Seconds(),
			EndSeconds:   s.End.Seconds(),
		})
	}
	return d
}

// renderRequests renders a tracer's retained traces into the /requests
// JSON document. Deterministic: classes sorted, exemplars slowest-first
// with ID tie-breaks, recent ring oldest-first, map keys sorted by the
// JSON encoder.
func renderRequests(t *reqtrace.Tracer, now sim.Time) []byte {
	doc := requestsDoc{
		VirtualTimeSeconds: now.Seconds(),
		Classes:            []classDoc{},
		Recent:             []traceDoc{},
	}
	doc.Started, doc.Sealed, doc.StagesRecorded = t.Counts()
	for _, c := range t.Classes() {
		cd := classDoc{Class: c, Slowest: []traceDoc{}}
		for _, tr := range t.Slowest(c, 0x7fffffff) {
			cd.Slowest = append(cd.Slowest, traceToDoc(tr))
		}
		doc.Classes = append(doc.Classes, cd)
	}
	recent := t.Recent()
	if len(recent) > requestsExported {
		recent = recent[len(recent)-requestsExported:]
	}
	for _, tr := range recent {
		doc.Recent = append(doc.Recent, traceToDoc(tr))
	}
	return marshal(doc)
}

// ServeMigration drives a multi-round create → age → migrate → eject →
// demand-fetch workload (with a final whole-volume clean) and hands
// publish freshly rendered Pages after every step. This is the workload
// behind `hlbench -serve`: long enough to watch, and exercising every
// decision actor (policy ranking, staging, copy-out, cleaning) so
// /heatmap and /decisions have real content. publish runs on the
// simulation's proc and must not block it.
func ServeMigration(s Scale, publish func(*Pages), rounds int) error {
	if rounds <= 0 {
		rounds = 3
	}
	r := newHLRig(s)
	r.k.EnableProfile()
	framesPer := s.Frames / (2 * rounds)
	if framesPer < 64 {
		framesPer = 64
	}
	err := r.run(func(p *sim.Proc) error {
		m := migrate.NewMigrator(r.hl)
		fe := svc.New(r.hl, svc.Config{
			Workers: 2, ReservedInteractive: 1,
			InteractiveQueue: 8, BackgroundQueue: 8,
		})
		for round := 0; round < rounds; round++ {
			path := fmt.Sprintf("/obj%d", round)
			spec := wl.LargeObjectSpec{
				Path:        path,
				Frames:      framesPer,
				SeqFrames:   framesPer / 4,
				SmallFrames: framesPer / 16,
				Seed:        uint64(42 + round),
			}
			if _, err := wl.CreateLargeObject(p, r.t, spec); err != nil {
				return err
			}
			publish(renderPages(r, fe))
			// Age the round's files so the policy sees an access-time
			// spread between rounds.
			p.Sleep(10 * sim.Time(time.Second))
			if _, err := m.RunOnce(p, int64(framesPer)*wl.FrameSize); err != nil {
				return err
			}
			publish(renderPages(r, fe))
			// Turn the next reads into demand fetches: drop buffered
			// blocks and eject every clean cache line.
			f, err := r.hl.FS.Open(p, path)
			if err != nil {
				return err
			}
			r.hl.FS.DropFileBuffers(p, f.Inum())
			if _, err := r.hl.Svc.EjectAll(); err != nil {
				return err
			}
			// The demand-fetch read goes through the front end so it is
			// admission-controlled and traced end to end: the /requests
			// page shows its queue-wait, cache misses, fetch-wait, and
			// the jukebox work underneath.
			deadline := p.Now() + 120*sim.Time(time.Second)
			if err := fe.Submit(p, svc.Interactive, deadline, func(wp *sim.Proc) error {
				buf := make([]byte, 64*1024)
				_, re := f.ReadAt(wp, buf, 0)
				return re
			}); err != nil {
				return err
			}
			publish(renderPages(r, fe))
		}
		// Reclaim the cheapest used volume so the cleaner's decisions
		// (selected, cleaned, skipped segments) show up in the audit.
		if u, ok := r.hl.SelectCleanableVolume(); ok {
			if _, err := r.hl.CleanVolume(p, u.Device, u.Volume); err != nil {
				return err
			}
		}
		publish(renderPages(r, fe))
		return nil
	})
	if err != nil {
		return fmt.Errorf("bench: serve workload: %w", err)
	}
	return nil
}
