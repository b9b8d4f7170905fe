package crash

import "testing"

// TestTracingDoesNotPerturbRecovery runs a reduced crash matrix twice —
// once plain, once with full-retention tracing on every device and the
// core — and requires identical recovery digests with zero problems in
// both. Tracing reads the virtual clock but never advances it, so an
// instrumented run must be bit-for-bit the same simulation. Two cuts
// per phase keep this cheap next to TestCrashMatrix's eight.
func TestTracingDoesNotPerturbRecovery(t *testing.T) {
	plain := DefaultConfig()
	traced := DefaultConfig()
	traced.Trace = true

	repPlain, err := RunMatrix(plain, 2)
	if err != nil {
		t.Fatal(err)
	}
	repTraced, err := RunMatrix(traced, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(repTraced.Outcomes) != len(repPlain.Outcomes) {
		t.Fatalf("traced matrix ran %d cuts, plain %d", len(repTraced.Outcomes), len(repPlain.Outcomes))
	}
	for i, o := range repTraced.Outcomes {
		if len(o.Violations) > 0 {
			t.Errorf("traced cut at event %d (%s): %v", o.Event, o.Phase, o.Violations)
		}
		if o.FsckProblems > 0 {
			t.Errorf("traced cut at event %d (%s): %d fsck problems", o.Event, o.Phase, o.FsckProblems)
		}
		po := repPlain.Outcomes[i]
		if o.Digest != po.Digest {
			t.Errorf("cut %d: tracing changed the recovery digest (event %d, %s): %s vs %s",
				i, o.Event, o.Phase, o.Digest[:12], po.Digest[:12])
		}
	}
}

// TestTracedWorkloadCapturesSpans proves Config.Trace actually
// instruments the crash rig: the pristine traced run retains spans from
// the disk, the jukebox, and the core pipeline.
func TestTracedWorkloadCapturesSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	res, err := runWorkload(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("traced run has no retaining obs domain")
	}
	if len(res.Obs.Spans()) == 0 {
		t.Fatal("traced run retained no spans")
	}
	for _, cat := range []string{"disk.write", "jb.write", "jb.swap", "core.migrate", "core.ckpt", "fp.write"} {
		if res.Obs.CatCount(cat) == 0 {
			t.Errorf("traced run has no %s events", cat)
		}
	}
	// The untraced run must not pay for retention.
	plain, err := runWorkload(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Obs != nil {
		t.Fatal("untraced run built a trace domain")
	}
}
