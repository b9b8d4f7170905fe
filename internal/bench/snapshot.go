package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BenchSnapshot is the machine-readable benchmark record emitted by
// `hlbench -json` (and `make bench-json`) into BENCH_*.json files, so
// the table metrics and key observability counters can be tracked
// across commits. Encoding uses encoding/json maps, whose keys marshal
// sorted — the output is deterministic for a deterministic run.
type BenchSnapshot struct {
	Schema string `json:"schema"`
	Scale  string `json:"scale"`
	// Tables maps "table2".."table6" to that table's named metrics.
	Tables map[string]map[string]float64 `json:"tables"`
	// Counters are obs counters from one instrumented migration +
	// demand-fetch run (bytes moved, fetches, copyouts, cache hits).
	Counters map[string]int64 `json:"counters"`
	// SpanSeconds are per-category obs span totals, in seconds, from
	// the same run — the trace-derived time breakdown.
	SpanSeconds map[string]float64 `json:"span_seconds"`
	// Quantiles maps each obs histogram with observations to its
	// {"p50_s","p99_s","mean_s"} summary, in seconds.
	Quantiles map[string]map[string]float64 `json:"quantiles"`
}

// BuildSnapshot runs every table plus one instrumented migration and
// collects the results.
func BuildSnapshot(s Scale, scaleName string) (*BenchSnapshot, error) {
	snap := &BenchSnapshot{
		Schema:      "hlbench/2",
		Scale:       scaleName,
		Tables:      map[string]map[string]float64{},
		Counters:    map[string]int64{},
		SpanSeconds: map[string]float64{},
		Quantiles:   map[string]map[string]float64{},
	}
	for _, c := range Cells {
		if c.Key == "" {
			continue
		}
		rep, err := c.Run(s)
		if err != nil {
			return nil, fmt.Errorf("bench: snapshot %s: %w", c.Name, err)
		}
		snap.Tables[c.Key] = rep.Metrics
	}
	// One instrumented migration + demand-fetch run for the obs counters
	// and span totals, read before the rig's daemons are stopped.
	r := newHLRig(s)
	err := r.run(func(p *sim.Proc) error {
		if err := migrateAndFetch(p, r, s); err != nil {
			return err
		}
		snap.collect(r.hl.Obs)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: snapshot migration: %w", err)
	}
	return snap, nil
}

// collect records the obs counters, span totals and latency quantiles.
func (snap *BenchSnapshot) collect(o *obs.Obs) {
	for _, name := range []string{
		"tertiary.fetches", "tertiary.copyouts",
		"tertiary.bytes_in", "tertiary.bytes_out",
		"cache.hits", "cache.misses",
	} {
		snap.Counters[name] = o.Counter(name).Value()
	}
	for _, a := range o.Aggregates() {
		snap.SpanSeconds[a.Cat] += a.Total.Seconds()
	}
	for _, h := range o.Histograms() {
		if h.N == 0 {
			continue
		}
		snap.Quantiles[h.Name] = map[string]float64{
			"p50_s":  h.P50().Seconds(),
			"p99_s":  h.P99().Seconds(),
			"mean_s": h.Mean().Seconds(),
		}
	}
}

// WriteSnapshot builds the snapshot and writes it as indented JSON.
func WriteSnapshot(w io.Writer, s Scale, scaleName string) error {
	snap, err := BuildSnapshot(s, scaleName)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
