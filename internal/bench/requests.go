package bench

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// The requests document is what `hlbench -requests FILE` writes and
// requests.json.golden pins: the traced overload cell's per-request
// critical paths, rendered once when the cell's run ends.

// requestsExported caps how many recent traces the document carries (the
// per-class slowest exemplars are always included in full).
const requestsExported = 64

func marshal(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Every document type marshals; reaching this is a programming
		// error worth surfacing in the document rather than panicking.
		return []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	return append(b, '\n')
}

// requestsDoc is the requests document's JSON shape: tracer totals, the
// slowest exemplars per class with their critical-path breakdowns, and the
// tail of recently completed requests. Everything is derived from virtual
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

// renderRequests renders a tracer's retained traces into the requests
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
