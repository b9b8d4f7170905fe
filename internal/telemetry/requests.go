package telemetry

import (
	"fmt"
	"strings"

	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// RequestsExported caps how many recent traces /requests serves (the
// per-class slowest exemplars are always included in full).
const RequestsExported = 64

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

// RenderRequests renders a tracer's retained traces into the /requests
// JSON document. Deterministic: classes sorted, exemplars slowest-first
// with ID tie-breaks, recent ring oldest-first, map keys sorted by the
// JSON encoder. A nil tracer renders the empty document.
func RenderRequests(t *reqtrace.Tracer, now sim.Time) []byte {
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
	if len(recent) > RequestsExported {
		recent = recent[len(recent)-RequestsExported:]
	}
	for _, tr := range recent {
		doc.Recent = append(doc.Recent, traceToDoc(tr))
	}
	return marshal(doc)
}

// RenderProfile renders the sim kernel's self-profile as Prometheus
// text. The wall-clock figures (events/sec, dispatch ns) are physical
// measurements of the simulator process and differ run to run; they are
// kept in their own Snapshot field, never mixed into the deterministic
// Metrics payload the reproducibility tests byte-compare.
func RenderProfile(pr sim.Profile) []byte {
	var b strings.Builder
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
