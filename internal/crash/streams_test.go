package crash

import "testing"

// streamsConfig is the pinned concurrent-pipeline rig: the same geometry
// as defaultConfig but with the K-stream copy-out active — two tertiary
// I/O streams draining the copy-out queue at once, and volume-striped
// segment allocation so the concurrent streams really drive different
// cartridges on the two drives.
func streamsConfig() config {
	cfg := defaultConfig()
	cfg.Streams = 2
	cfg.VolStripe = 2
	return cfg
}

// TestCrashMatrixConcurrentStreams re-runs the crash matrix with the
// parallel migration pipeline active (Streams > 1), so cut points land
// while several tertiary segments are in flight concurrently — copy-outs
// interleaved across two drives and two volumes. Recovery from every cut
// must be as clean as on the serial path: zero durability violations,
// zero fsck problems, and the whole matrix bit-reproducible.
//
// The name shares the TestCrashMatrix prefix deliberately: `make crash`
// runs `-run TestCrashMatrix`, which covers the serial matrix and this
// concurrent one together.
func TestCrashMatrixConcurrentStreams(t *testing.T) {
	cfg := streamsConfig()
	rep, err := runMatrix(cfg, cutsPerPhase)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, o := range rep.Outcomes {
		phases[o.Phase]++
		for _, v := range o.Violations {
			t.Errorf("cut at event %d (%s): %s", o.Event, o.Phase, v)
		}
		if o.FsckProblems > 0 {
			t.Errorf("cut at event %d (%s): %d fsck problems", o.Event, o.Phase, o.FsckProblems)
		}
	}
	// The concurrent pipeline must still bracket every phase — in
	// particular the copy-out and volume-swap phases where the K streams
	// overlap in flight.
	for _, ph := range phaseNames() {
		if phases[ph] < cutsPerPhase {
			t.Errorf("phase %q got %d cuts, want %d", ph, phases[ph], cutsPerPhase)
		}
	}
	if t.Failed() {
		t.Logf("phase spans: %+v", rep.Phases)
		return
	}

	// Determinism with concurrency: the stream daemons race only on the
	// virtual clock, so the full matrix must replay digest-for-digest.
	rep2, err := runMatrix(cfg, cutsPerPhase)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Outcomes) != len(rep.Outcomes) {
		t.Fatalf("second run produced %d outcomes, first %d", len(rep2.Outcomes), len(rep.Outcomes))
	}
	for i, o := range rep.Outcomes {
		o2 := rep2.Outcomes[i]
		if o.Digest != o2.Digest || o.Event != o2.Event || o.Phase != o2.Phase {
			t.Errorf("cut %d not reproducible: event %d (%s) %s vs event %d (%s) %s",
				i, o.Event, o.Phase, o.Digest[:12], o2.Event, o2.Phase, o2.Digest[:12])
		}
	}
}
