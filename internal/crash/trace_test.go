package crash

import (
	"bytes"
	"strings"
	"testing"
)

// TestTracingDoesNotPerturbRecovery runs a reduced crash matrix with
// full-retention tracing on every device and the core, and requires zero
// problems and, at every cut, the digest the untraced matrix of
// testdata/matrix.golden recorded at that event. Tracing reads the virtual
// clock but never advances it, so an instrumented run must be bit-for-bit the
// same simulation. Two cuts per phase (each phase's first and last event, both
// cut by TestCrashMatrix's eight) keep this cheap.
func TestTracingDoesNotPerturbRecovery(t *testing.T) {
	traced := defaultConfig()
	traced.Trace = true
	rep, err := runMatrix(traced, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range golden(t, "default") {
		want[line] = true
	}
	for _, o := range rep.Outcomes {
		if len(o.Violations) > 0 {
			t.Errorf("traced cut at event %d (%s): %v", o.Event, o.Phase, o.Violations)
		}
		if o.FsckProblems > 0 {
			t.Errorf("traced cut at event %d (%s): %d fsck problems", o.Event, o.Phase, o.FsckProblems)
		}
		if line := goldenLine("default", o); !want[line] {
			t.Errorf("tracing changed the recovery at event %d (%s): %q is not in the golden", o.Event, o.Phase, line)
		}
	}
}

// TestTracedWorkloadCapturesSpans proves config.Trace actually
// instruments the crash rig: the pristine traced run retains spans from
// the disk, the jukebox, and the core pipeline.
func TestTracedWorkloadCapturesSpans(t *testing.T) {
	cfg := defaultConfig()
	cfg.Trace = true
	res, err := runWorkload(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("traced run has no retaining obs domain")
	}
	var trace bytes.Buffer
	if err := res.Obs.WriteChromeTrace(&trace); err != nil || !strings.Contains(trace.String(), `"ph":"X"`) {
		t.Fatalf("traced run retained no spans (%v)", err)
	}
	for _, cat := range []string{"disk.write", "jb.write", "jb.swap", "core.migrate", "core.ckpt", "fp.write"} {
		if res.Obs.CatCount(cat) == 0 {
			t.Errorf("traced run has no %s events", cat)
		}
	}
	// The untraced run must not pay for retention.
	plain, err := runWorkload(defaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Obs != nil {
		t.Fatal("untraced run built a trace domain")
	}
}
