package dump

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// sec converts whole seconds to virtual time for the hand-built traces.
func sec(s int) sim.Time { return sim.Time(s) * sim.Time(time.Second) }

// buildTracer assembles one sealed jukebox-swap-shaped trace (id 1) and
// one cache-hit-shaped trace (id 2), recording each stage as its layer does.
func buildTracer(t *testing.T) *obs.Tracer {
	t.Helper()
	tc := obs.NewTracer()
	arg := func(key string, v int64) obs.Arg { return obs.Arg{Key: key, Val: v} }
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		tr := tc.Start(1, "interactive", p.Now(), sec(60))
		tr.Begin(p, obs.KindAdmission).End(nil, "", "", "admitted")
		p.Sleep(sec(1))
		tr.Begin(p, obs.KindCacheLookup).End(nil, "", "", "miss")
		fw := tr.Begin(p, obs.KindFetchWait)
		mt := tr.Begin(p, obs.KindMediaTransfer)
		sw := tr.Begin(p, obs.KindDriveSwap)
		p.Sleep(sec(8))
		sw.End(nil, "", "", "swap", arg("vol", 0), arg("drive", 1))
		p.Sleep(sec(1))
		mt.End(nil, "", "", "ReadSegment", arg("vol", 0), arg("seg", 0))
		fw.End(nil, "", "", "", arg("tag", 0))
		io := tr.Begin(p, obs.KindStripeIO)
		p.Sleep(sec(2))
		io.End(nil, "", "", "read", arg("blk", 12))
		tc.Seal(tr, p.Now(), nil)

		p.Sleep(sec(8))
		tr2 := tc.Start(2, "interactive", p.Now(), sec(80))
		tr2.Begin(p, obs.KindAdmission).End(nil, "", "", "admitted")
		tr2.Begin(p, obs.KindCacheLookup).End(nil, "", "", "hit")
		io2 := tr2.Begin(p, obs.KindStripeIO)
		p.Sleep(sec(1))
		io2.End(nil, "", "", "read", arg("blk", 12))
		tc.Seal(tr2, p.Now(), nil)
	})
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
		"drive-swap (vol 0 drive 1)", "media-transfer (read vol 0 seg 0)", "fetch-wait (seg 0)",
		"stripe-io (read 12 blk)",
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
