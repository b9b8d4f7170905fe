// Command benchcheck guards the committed benchmark baseline: it builds
// a fresh `hlbench -json` snapshot in-process at quick scale and requires
// it to equal the newest committed BENCH_*.json, metric for metric. The
// simulator runs on virtual time, so every metric is reproducible to the
// bit and any difference means a code change altered behavior — either a
// regression (fix it) or an intended change (regenerate the baseline with
// `make bench-json`).
//
// The comparison is equality up to a relative 1e-9, which only absorbs
// floating-point round-off between the snapshot in memory and its decimal
// text. A metric present on one side and missing from the other fails.
//
// Usage:
//
//	benchcheck [-baseline FILE] [-v]
//
// Exits 0 when every metric matches, 1 when one differs, 2 on usage/setup
// errors (no baseline, schema mismatch).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
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

// newestBaseline picks the lexically last BENCH_*.json in dir — the
// naming convention keeps them ordered.
func newestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baseline in %s (run `make bench-json`)", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

func main() {
	baseline := flag.String("baseline", "", "baseline snapshot file (default: newest BENCH_*.json in the working directory)")
	verbose := flag.Bool("v", false, "also print metrics that pass")
	flag.Parse()

	path := *baseline
	if path == "" {
		var err error
		path, err = newestBaseline(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	var base bench.BenchSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: parsing %s: %v\n", path, err)
		os.Exit(2)
	}

	fresh, err := bench.BuildSnapshot(bench.QuickScale(), "quick")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: building fresh snapshot: %v\n", err)
		os.Exit(2)
	}
	if base.Schema != fresh.Schema {
		fmt.Fprintf(os.Stderr, "benchcheck: baseline %s has schema %q, fresh snapshot %q — regenerate with `make bench-json`\n",
			path, base.Schema, fresh.Schema)
		os.Exit(2)
	}
	if base.Scale != fresh.Scale {
		fmt.Fprintf(os.Stderr, "benchcheck: baseline %s is %q scale, fresh snapshot %q — regenerate with `make bench-json`\n",
			path, base.Scale, fresh.Scale)
		os.Exit(2)
	}

	baseMetrics, freshMetrics := flatten(&base), flatten(fresh)
	fail, ok := compare(baseMetrics, freshMetrics, *verbose)
	for _, line := range append(ok, fail...) {
		fmt.Println(line)
	}
	if len(fail) > 0 {
		fmt.Printf("benchcheck: %d metrics differ from %s (%d in the baseline, %d fresh)\n",
			len(fail), path, len(baseMetrics), len(freshMetrics))
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d metrics equal to %s\n", len(baseMetrics), path)
}
