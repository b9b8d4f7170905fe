package dump

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// sec converts whole seconds to virtual time for the hand-built traces.
func sec(s int) sim.Time { return sim.Time(s) * sim.Time(time.Second) }

// buildTracer assembles one sealed jukebox-swap-shaped trace (id 1) and
// one cache-hit-shaped trace (id 2).
func buildTracer(t *testing.T) *reqtrace.Tracer {
	t.Helper()
	tc := reqtrace.New()

	tr := tc.Start(1, "interactive", sec(0), sec(60))
	tr.Mark(reqtrace.KindAdmission, sec(0), "admitted")
	tr.Mark(reqtrace.KindCacheLookup, sec(1), "miss")
	fw := tr.StageStart(reqtrace.KindFetchWait, sec(1), "seg 0")
	mt := tr.StageStart(reqtrace.KindMediaTransfer, sec(1), "read vol 0 seg 0")
	sw := tr.StageStart(reqtrace.KindDriveSwap, sec(1), "vol 0 drive 1")
	tr.StageEnd(sw, sec(9))
	tr.StageEnd(mt, sec(10))
	tr.StageEnd(fw, sec(10))
	io := tr.StageStart(reqtrace.KindStripeIO, sec(10), "read 12 blk")
	tr.StageEnd(io, sec(12))
	tc.Seal(tr, sec(12), nil)

	tr2 := tc.Start(2, "interactive", sec(20), sec(80))
	tr2.Mark(reqtrace.KindAdmission, sec(20), "admitted")
	tr2.Mark(reqtrace.KindCacheLookup, sec(20), "hit")
	io2 := tr2.StageStart(reqtrace.KindStripeIO, sec(20), "read 12 blk")
	tr2.StageEnd(io2, sec(21))
	tc.Seal(tr2, sec(21), nil)
	return tc
}

func TestWaterfallSumsToLatency(t *testing.T) {
	tc := buildTracer(t)
	var out bytes.Buffer
	if err := Waterfall(&out, tc, 1); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Request 1 (interactive)", "deadline", "met",
		"drive-swap (vol 0 drive 1)", "media-transfer", "fetch-wait",
		"critical path:",
		"(equals end-to-end latency: true)",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, s)
		}
	}

	out.Reset()
	if err := Waterfall(&out, tc, 2); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "cache-lookup (hit)") ||
		!strings.Contains(s, "(equals end-to-end latency: true)") {
		t.Fatalf("cache-hit waterfall wrong:\n%s", s)
	}

	if err := Waterfall(&out, tc, 99); err == nil {
		t.Fatal("want error for unretained request id")
	}
}

func TestSlowestRanksExemplars(t *testing.T) {
	tc := buildTracer(t)
	var out bytes.Buffer
	Slowest(&out, tc, 5)
	s := out.String()
	if !strings.Contains(s, "class interactive:") {
		t.Fatalf("missing class header:\n%s", s)
	}
	// The 12 s swap read must rank above the 1 s cache hit.
	if i1, i2 := strings.Index(s, "#1"), strings.Index(s, "#2"); i1 < 0 || i2 < 0 || i1 > i2 {
		t.Fatalf("ranking wrong (#1 at %d, #2 at %d):\n%s", i1, i2, s)
	}
	if !strings.Contains(s, "drive-swap") {
		t.Fatalf("dominant stage missing:\n%s", s)
	}
}
