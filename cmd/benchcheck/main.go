// Command benchcheck guards the committed benchmark baselines. It reads two
// kinds of file, each with its own reader, and is always told which file is
// the baseline:
//
//   - an `hlbench -json` snapshot (BENCH_0.json): benchcheck builds a fresh
//     snapshot in-process at quick scale and requires it to equal the
//     baseline, metric for metric;
//   - a `benchmark -json` result file of the four benchmark workloads
//     (testdata/benchcheck/workloads-SEED.json): benchcheck requires every
//     metric the fresh file marks exact (the virtual clock and the exact
//     per-layer counts) to equal the baseline's. The host-clock metrics
//     (host_wall_s, host_alloc_MB, host_peak_rss_MB) are printed beside
//     their baseline values and never fail the check.
//
// The simulator runs on virtual time, so every gated metric is reproducible
// to the bit and any difference means a code change altered behavior —
// either a regression (fix it) or an intended change (regenerate the
// baseline: `make bench-json`, or the benchmark run in `make bench-check`
// with its -json file copied over the baseline).
//
// The comparison is equality up to a relative 1e-9, which only absorbs
// floating-point round-off between a value in memory and its decimal text. A
// metric present on one side and missing from the other fails.
//
// Usage:
//
//	benchcheck [-baseline BENCH_0.json] [-v]
//	benchcheck -baseline testdata/benchcheck/workloads-1993.json [-v] FRESH.json
//
// Exits 0 when every metric matches, 1 when one differs, 2 on usage/setup
// errors (unreadable baseline, a file of the other kind, mismatched runs).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/bench"
)

// epsilon is the relative difference below which two values are the same
// number written twice.
const epsilon = 1e-9

func same(base, fresh float64) bool {
	return base == fresh || math.Abs(fresh-base) <= epsilon*math.Max(math.Abs(base), math.Abs(fresh))
}

// flatten names every metric of a snapshot: "table2.<metric>",
// "counter.<name>", "span_seconds.<cat>", "quantile.<histogram>.<q>".
func flatten(s *bench.BenchSnapshot) map[string]float64 {
	m := map[string]float64{}
	for tbl, metrics := range s.Tables {
		for name, v := range metrics {
			m[tbl+"."+name] = v
		}
	}
	for name, v := range s.Counters {
		m["counter."+name] = float64(v)
	}
	for name, v := range s.SpanSeconds {
		m["span_seconds."+name] = v
	}
	for hist, qs := range s.Quantiles {
		for q, v := range qs {
			m["quantile."+hist+"."+q] = v
		}
	}
	return m
}

// compare returns one line per metric that differs between the two
// snapshots or is missing from either, in name order; with verbose set,
// matching metrics are listed in ok as well.
func compare(base, fresh map[string]float64, verbose bool) (fail, ok []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	for name := range fresh {
		if _, inBase := base[name]; !inBase {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, inBase := base[name]
		f, inFresh := fresh[name]
		switch {
		case !inFresh:
			fail = append(fail, fmt.Sprintf("FAIL %-46s baseline %.17g, missing from fresh snapshot", name, b))
		case !inBase:
			fail = append(fail, fmt.Sprintf("FAIL %-46s fresh %.17g, missing from the baseline", name, f))
		case !same(b, f):
			fail = append(fail, fmt.Sprintf("FAIL %-46s baseline %.17g, fresh %.17g (Δ %.3g)", name, b, f, f-b))
		case verbose:
			ok = append(ok, fmt.Sprintf("ok   %-46s %.17g", name, b))
		}
	}
	return fail, ok
}

// readSnapshot reads an `hlbench -json` snapshot; a file without a schema
// (a benchmark result file, say) is refused.
func readSnapshot(path string) (*bench.BenchSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s bench.BenchSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	if s.Schema == "" {
		return nil, fmt.Errorf("%s is not an hlbench snapshot (no schema)", path)
	}
	return &s, nil
}

// checkSnapshot compares a fresh quick-scale snapshot with the baseline at
// path.
func checkSnapshot(path string, verbose bool) (fail, ok []string, n int, err error) {
	base, err := readSnapshot(path)
	if err != nil {
		return nil, nil, 0, err
	}
	fresh, err := bench.BuildSnapshot(bench.QuickScale(), "quick")
	if err != nil {
		return nil, nil, 0, fmt.Errorf("building fresh snapshot: %v", err)
	}
	if base.Schema != fresh.Schema {
		return nil, nil, 0, fmt.Errorf("baseline %s has schema %q, fresh snapshot %q — regenerate with `make bench-json`",
			path, base.Schema, fresh.Schema)
	}
	if base.Scale != fresh.Scale {
		return nil, nil, 0, fmt.Errorf("baseline %s is %q scale, fresh snapshot %q — regenerate with `make bench-json`",
			path, base.Scale, fresh.Scale)
	}
	baseMetrics := flatten(base)
	fail, ok = compare(baseMetrics, flatten(fresh), verbose)
	return fail, ok, len(baseMetrics), nil
}

// results is the part of a `benchmark -json` result file the gate reads.
type results struct {
	Workloads map[string]struct {
		Seed    uint64 `json:"seed"`
		Scale   string `json:"scale"`
		Traced  bool   `json:"traced"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Exact bool    `json:"exact"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// hostMetrics are the host-clock numbers a result baseline records for the
// trajectory without gating them.
var hostMetrics = []string{"host_wall_s", "host_alloc_MB", "host_peak_rss_MB"}

// readResults reads a `benchmark -json` result file; a file without
// workloads (an hlbench snapshot, say) is refused.
func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s is not a benchmark result file (no workloads)", path)
	}
	return &r, nil
}

// exactMetrics names every metric a result file marks exact,
// "<workload>.<metric>"; host names the host-clock metrics of hostMetrics.
func exactMetrics(r *results) (exact, host map[string]float64) {
	exact, host = map[string]float64{}, map[string]float64{}
	for w, res := range r.Workloads {
		for name, m := range res.Metrics {
			if m.Exact {
				exact[w+"."+name] = m.Value
			}
		}
		for _, name := range hostMetrics {
			if m, ok := res.Metrics[name]; ok {
				host[w+"."+name] = m.Value
			}
		}
	}
	return exact, host
}

// checkResults compares the fresh result file with the baseline at path:
// the exact metrics gate, the host metrics are listed in info.
func checkResults(path, freshPath string, verbose bool) (fail, ok, info []string, n int, err error) {
	base, err := readResults(path)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	fresh, err := readResults(freshPath)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	for w, b := range base.Workloads {
		f, found := fresh.Workloads[w]
		if found && (f.Seed != b.Seed || f.Scale != b.Scale || f.Traced != b.Traced) {
			return nil, nil, nil, 0, fmt.Errorf("%s: baseline %s ran seed %d scale %q traced %v, fresh %s seed %d scale %q traced %v",
				w, path, b.Seed, b.Scale, b.Traced, freshPath, f.Seed, f.Scale, f.Traced)
		}
	}
	baseExact, baseHost := exactMetrics(base)
	freshExact, freshHost := exactMetrics(fresh)
	fail, ok = compare(baseExact, freshExact, verbose)
	names := make([]string, 0, len(baseHost))
	for name := range baseHost {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if f, found := freshHost[name]; found {
			info = append(info, fmt.Sprintf("host %-46s baseline %.4g, fresh %.4g (not gated)", name, baseHost[name], f))
		}
	}
	return fail, ok, info, len(baseExact), nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_0.json", "baseline file: an hlbench snapshot, or a benchmark result file when a fresh result file is given")
	verbose := flag.Bool("v", false, "also print metrics that pass")
	flag.Parse()

	var fail, ok, info []string
	var n int
	var err error
	switch flag.NArg() {
	case 0:
		fail, ok, n, err = checkSnapshot(*baseline, *verbose)
	case 1:
		fail, ok, info, n, err = checkResults(*baseline, flag.Arg(0), *verbose)
	default:
		err = fmt.Errorf("at most one fresh result file, got %d arguments", flag.NArg())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	for _, line := range append(append(info, ok...), fail...) {
		fmt.Println(line)
	}
	if len(fail) > 0 {
		fmt.Printf("benchcheck: %d metrics differ from %s (%d in the baseline)\n", len(fail), *baseline, n)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d metrics equal to %s\n", n, *baseline)
}
