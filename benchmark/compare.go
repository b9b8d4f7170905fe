package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// verdicts of one (metric, workload) comparison.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

var errWorse = errors.New("at least one end-to-end metric got worse")

// compareFiles applies BENCHMARK.json's bounds to two result files, A the
// reference and B the candidate, and prints one verdict per (metric,
// workload). Metrics on the virtual clock repeat exactly for a given seed,
// so when both files were measured with the same seed they are compared
// for equality and any change for the worse is a regression; with
// different seeds, and for host metrics, the bound applies. A host metric
// whose own rep-to-rep spread exceeds the bound is unresolved rather than
// unchanged. It returns errWorse if any end-to-end verdict is worse.
func compareFiles(sp *spec, pathA, pathB string, w io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	anyWorse := false
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: missing from one of the files, skipped\n", wl.Name)
			continue
		}
		sameSeed := ra.Seed == rb.Seed && ra.Scale == rb.Scale
		for _, sm := range sp.EndToEnd {
			ma, okA := ra.Metrics[sm.Name]
			mb, okB := rb.Metrics[sm.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-9s %-18s missing\n", wl.Name, sm.Name)
				continue
			}
			bound := sm.Bound
			if ma.Exact && sameSeed {
				bound = 0
			}
			v := verdict(sm.Better, bound, ma, mb)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-9s %-18s %-10s %.6g -> %.6g %s (%+.2f%%, bound %g%%)\n",
				wl.Name, sm.Name, v, ma.Value, mb.Value, sm.Unit, 100*relChange(ma.Value, mb.Value), 100*bound)
		}
		// Per-layer: only exact counts and virtual times can be judged
		// without a bound, and only differences are worth a line.
		var lines []string
		for _, sm := range sp.PerLayer {
			ma, okA := ra.Metrics[sm.Name]
			mb, okB := rb.Metrics[sm.Name]
			if !okA || !okB || !ma.Exact || !sameSeed || ma.Value == mb.Value {
				continue
			}
			lines = append(lines, fmt.Sprintf("%-9s   %-34s %-10s %.6g -> %.6g %s\n",
				wl.Name, sm.Name, verdict(sm.Better, 0, ma, mb), ma.Value, mb.Value, sm.Unit))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprint(w, l)
		}
		if sameSeed && ra.Traced && rb.Traced && len(lines) == 0 {
			fmt.Fprintf(w, "%-9s   every exact per-layer count identical\n", wl.Name)
		}
	}
	if anyWorse {
		return errWorse
	}
	return nil
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// verdict judges candidate b against reference a.
func verdict(direction string, bound float64, a, b metric) string {
	change := relChange(a.Value, b.Value)
	if direction == "lower" {
		change = -change // positive is now an improvement
	}
	switch {
	case change < -bound:
		return worse
	case change > bound:
		return better
	case bound > 0 && (spread(a) > bound || spread(b) > bound):
		return unresolved
	}
	return unchanged
}

// spread is a metric's interquartile range over reps as a share of its
// median (0 for single-valued metrics).
func spread(m metric) float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}
