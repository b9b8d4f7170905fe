package bench

import "testing"

func TestAblationCachePolicy(t *testing.T) {
	rep, err := AblationCachePolicy()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	// LRU must exploit the 80/20 reuse at least as well as Random.
	if m["LRU/fetches"] > m["Random/fetches"]*1.15 {
		t.Errorf("LRU fetches (%.0f) should not exceed Random (%.0f)",
			m["LRU/fetches"], m["Random/fetches"])
	}
	for _, k := range []string{"LRU", "FIFO", "Random", "SLRU (default)"} {
		if m[k+"/fetches"] == 0 {
			t.Errorf("%s recorded no fetches", k)
		}
	}
}

func TestAblationCopyout(t *testing.T) {
	rep, err := AblationCopyout()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	// Delayed copy-outs finish staging sooner (no I/O-server contention
	// during assembly) but take longer to be fully durable.
	if m["delayed/staging-s"] >= m["immediate/staging-s"] {
		t.Errorf("delayed staging (%.1fs) should beat immediate (%.1fs)",
			m["delayed/staging-s"], m["immediate/staging-s"])
	}
	if m["delayed/total-s"] < m["delayed/staging-s"] {
		t.Error("total durable time cannot precede staging completion")
	}
}

func TestAblationSTP(t *testing.T) {
	rep, err := AblationSTP()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	// STP must not re-fetch more than the size-only policy, which
	// migrates big recent files and pays for it on the reread.
	if m["STP (t^1 * s^1)/fetches"] > m["size only (s^1)/fetches"] {
		t.Errorf("STP fetches (%.0f) should not exceed size-only (%.0f)",
			m["STP (t^1 * s^1)/fetches"], m["size only (s^1)/fetches"])
	}
}

func TestAblationFaultRate(t *testing.T) {
	rep, err := ablationFaultRate()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m["0%/retries"] != 0 {
		t.Errorf("baseline run recorded %.0f retries with no fault plan", m["0%/retries"])
	}
	if m["1%/retries"] == 0 {
		t.Error("1%% fault plan injected no transient faults")
	}
	if m["5%/retries"] < m["1%/retries"] {
		t.Errorf("5%% rate should retry at least as often as 1%% (%.0f < %.0f)",
			m["5%/retries"], m["1%/retries"])
	}
	// Recovery must absorb every injected fault: the workload degrades in
	// throughput but never fails.
	for _, k := range []string{"1%", "5%"} {
		if m[k+"/exhausted"] != 0 {
			t.Errorf("%s: %.0f retry budgets exhausted; recovery failed", k, m[k+"/exhausted"])
		}
	}
	if m["5%/MBps"] > m["0%/MBps"] {
		t.Errorf("throughput should not improve under faults (5%%: %.2f > 0%%: %.2f)",
			m["5%/MBps"], m["0%/MBps"])
	}
	if m["0%/MBps"] == 0 {
		t.Error("baseline throughput is zero")
	}
}

func TestAblationCrashRecovery(t *testing.T) {
	rep, err := ablationCrashRecovery()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	// Recovery work scales with the log written since the checkpoint: no
	// replay at zero, monotonically more psegs as the log grows.
	if m["0/psegs"] != 0 {
		t.Errorf("zero-length log replayed %.0f psegs", m["0/psegs"])
	}
	last := -1.0
	for _, k := range []string{"0", "4", "16", "64"} {
		if m[k+"/psegs"] < last {
			t.Errorf("psegs replayed not monotone at %s segments (%.0f < %.0f)", k, m[k+"/psegs"], last)
		}
		last = m[k+"/psegs"]
	}
	if m["64/psegs"] == 0 {
		t.Error("64-segment log replayed nothing")
	}
	// And the virtual-time recovery cost grows with it.
	if m["64/recovery-s"] <= m["0/recovery-s"] {
		t.Errorf("long-log recovery (%.2fs) should cost more than checkpoint-only (%.2fs)",
			m["64/recovery-s"], m["0/recovery-s"])
	}
}

func TestAblationReplication(t *testing.T) {
	rep, err := ablationReplication()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	for _, k := range []string{"1x1", "2x2", "3x2"} {
		if m[k+"/fetch-ms"] <= 0 {
			t.Errorf("%s: no healthy fetch latency recorded", k)
		}
	}
	// The unreplicated baseline has nothing to redirect to or repair.
	if m["1x1/repaired-bytes"] != 0 || m["1x1/redirects"] != 0 {
		t.Errorf("1x1 recorded repair traffic (%.0f bytes, %.0f redirects)",
			m["1x1/repaired-bytes"], m["1x1/redirects"])
	}
	// Replicated configs must survive losing library 0: reads redirect to
	// surviving copies and a repair pass re-replicates real bytes.
	for _, k := range []string{"2x2", "3x2"} {
		if m[k+"/redirects"] == 0 {
			t.Errorf("%s: library failure caused no replica redirects", k)
		}
		if m[k+"/repaired-bytes"] == 0 {
			t.Errorf("%s: repair pass copied nothing", k)
		}
		if m[k+"/degraded-ms"] <= 0 {
			t.Errorf("%s: no degraded fetch latency recorded", k)
		}
	}
}

func TestAblationBlockRange(t *testing.T) {
	rep, err := AblationBlockRange()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	// Block-range migration keeps hot queries fast; whole-file migration
	// sends the hot pages to tape too.
	if m["block-range/hotquery-ms"] >= m["whole-file/hotquery-ms"] {
		t.Errorf("block-range hot queries (%.1fms) should beat whole-file (%.1fms)",
			m["block-range/hotquery-ms"], m["whole-file/hotquery-ms"])
	}
}

func TestAblationOverload(t *testing.T) {
	rep, err := ablationOverload()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	// Below capacity nothing is shed; at 4x the queue must overflow and
	// goodput must degrade by shedding, not by stalling.
	if m["x0.5/shed_rate"] != 0 {
		t.Errorf("x0.5 shed %.3f of requests below capacity", m["x0.5/shed_rate"])
	}
	if m["x4/shed_rate"] == 0 {
		t.Error("x4 offered load never shed: the queue bound is not binding")
	}
	for _, prev := range []struct{ lo, hi string }{
		{"x0.5", "x1"}, {"x1", "x2"}, {"x2", "x4"},
	} {
		if m[prev.hi+"/shed_rate"] < m[prev.lo+"/shed_rate"] {
			t.Errorf("shed rate not monotone: %s %.3f > %s %.3f",
				prev.lo, m[prev.lo+"/shed_rate"], prev.hi, m[prev.hi+"/shed_rate"])
		}
		if m[prev.hi+"/goodput"] > m[prev.lo+"/goodput"] {
			t.Errorf("goodput rose with load: %s %.3f < %s %.3f",
				prev.lo, m[prev.lo+"/goodput"], prev.hi, m[prev.hi+"/goodput"])
		}
	}
	// Bounded interactive p99 under 4x load: the deadline (5 s) caps how
	// long any admitted request can linger, so p99 stays within the
	// histogram bucket holding the deadline instead of growing without
	// bound as queues deepen.
	if cap := 10000.0; m["x4/p99_ms"] > cap {
		t.Errorf("x4 interactive p99 %.0f ms not bounded by the deadline bucket (%.0f ms)",
			m["x4/p99_ms"], cap)
	}
	// Determinism: the table bench-check gates on must reproduce exactly.
	rep2, err := ablationOverload()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range m {
		if rep2.Metrics[k] != v {
			t.Errorf("metric %s not deterministic: %v vs %v", k, v, rep2.Metrics[k])
		}
	}
}
