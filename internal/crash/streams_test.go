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
// zero fsck problems, every phase bracketed (the copy-out and volume-swap
// phases in particular, where the K streams overlap in flight), and every
// digest the golden's: the stream daemons race only on the virtual clock.
//
// The name shares the TestCrashMatrix prefix deliberately: `make crash`
// runs `-run TestCrashMatrix`, which covers the serial matrix and this
// concurrent one together.
func TestCrashMatrixConcurrentStreams(t *testing.T) {
	checkMatrix(t, "streams")
}

// TestCrashMatrixConcurrentStreamsWriteThrough is the concurrent matrix with
// no write cache, the configuration the benchmark runs.
func TestCrashMatrixConcurrentStreamsWriteThrough(t *testing.T) {
	checkByReference(t, "streams-wt")
}
