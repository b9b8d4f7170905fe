package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestSameIsEqualityUpToRoundOff(t *testing.T) {
	for _, c := range []struct {
		base, fresh float64
		want        bool
	}{
		{0, 0, true},
		{639.25, 639.25, true},
		{0.1 + 0.2, 0.3, true},            // the same number computed two ways
		{1e12, 1e12 + 1, true},            // 1e-12 relative
		{1, 1 + 1e-6, false},              // far inside the old 10% class, a behaviour change now
		{100, 101, false},                 // 1%: passed before
		{0, 1e-12, false},                 // no absolute floor: zero means zero
		{0.004, 0.0041, false},            // passed the old quantile floor of 0.005
		{-2.5, 2.5, false},                // sign matters
		{1e-300, 1.0000000001e-300, true}, // tiny values get the same relative test
	} {
		if got := same(c.base, c.fresh); got != c.want {
			t.Errorf("same(%g, %g) = %v, want %v", c.base, c.fresh, got, c.want)
		}
		if got := same(c.fresh, c.base); got != c.want {
			t.Errorf("same(%g, %g) = %v, want %v (not symmetric)", c.fresh, c.base, got, c.want)
		}
	}
}

func TestCompareReportsDifferencesAndMissingMetricsBothWays(t *testing.T) {
	base := map[string]float64{"table2.a": 1, "table2.b": 2, "counter.gone": 7}
	fresh := map[string]float64{"table2.a": 1, "table2.b": 2.5, "counter.new": 9}
	fail, ok := compare(base, fresh, true)
	if len(ok) != 1 || !strings.Contains(ok[0], "table2.a") {
		t.Errorf("ok = %q, want only table2.a", ok)
	}
	want := []string{ // in name order
		"counter.gone", "missing from fresh snapshot",
		"counter.new", "missing from the baseline",
		"table2.b", "baseline 2, fresh 2.5",
	}
	if len(fail) != 3 {
		t.Fatalf("fail = %q, want 3 lines", fail)
	}
	for i, line := range fail {
		if !strings.Contains(line, want[2*i]) || !strings.Contains(line, want[2*i+1]) {
			t.Errorf("fail[%d] = %q, want it to mention %q and %q", i, line, want[2*i], want[2*i+1])
		}
	}
	if fail, ok := compare(base, base, false); len(fail) != 0 || len(ok) != 0 {
		t.Errorf("a snapshot against itself, quiet: fail %q ok %q", fail, ok)
	}
}

func TestFlattenNamesEverySection(t *testing.T) {
	got := flatten(&bench.BenchSnapshot{
		Tables:      map[string]map[string]float64{"table2": {"FFS/seq/KBs": 1002}},
		Counters:    map[string]int64{"cache.hits": 3},
		SpanSeconds: map[string]float64{"fp.write": 1.5},
		Quantiles:   map[string]map[string]float64{"tertiary.fetch_wait": {"p99_s": 0.25}},
	})
	want := map[string]float64{
		"table2.FFS/seq/KBs":                 1002,
		"counter.cache.hits":                 3,
		"span_seconds.fp.write":              1.5,
		"quantile.tertiary.fetch_wait.p99_s": 0.25,
	}
	if len(got) != len(want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("flatten[%q] = %v, want %v", name, got[name], v)
		}
	}
}
