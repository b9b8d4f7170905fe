package svc_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svc"
)

// hasKind reports whether the trace recorded at least one stage of kind.
func hasKind(tr *obs.Trace, kind obs.Kind) bool {
	for _, s := range tr.Stages {
		if s.Kind == kind {
			return true
		}
	}
	return false
}

// checkSealed asserts the structural invariants every sealed trace must
// satisfy: marked done, every stage closed inside [submit, end], and the
// critical-path breakdown summing exactly to the end-to-end latency.
func checkSealed(t *testing.T, tr *obs.Trace) {
	t.Helper()
	if tr == nil {
		t.Fatal("no trace retained")
	}
	if !tr.Done {
		t.Fatalf("request %d: trace not sealed", tr.ID)
	}
	for i, s := range tr.Stages {
		if s.End < s.Start {
			t.Fatalf("request %d stage %d (%s): open or inverted interval [%v, %v]",
				tr.ID, i, s.Kind, s.Start, s.End)
		}
		if s.End > tr.End {
			t.Fatalf("request %d stage %d (%s): ends at %v after the request at %v",
				tr.ID, i, s.Kind, s.End, tr.End)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("request %d: %v", tr.ID, err)
	}
	var sum sim.Time
	for _, d := range tr.Breakdown() {
		sum += d
	}
	if sum != tr.Latency() {
		t.Fatalf("request %d: breakdown sums to %v, latency %v", tr.ID, sum, tr.Latency())
	}
}

// TestTraceFetchAndCacheHitSumToLatency reads a migrated file cold (the
// full demand-fetch path) and then warm (segment-cache hit), and checks
// both retained traces: stage kinds matching the path taken, and the
// critical-path sum invariant.
func TestTraceFetchAndCacheHitSumToLatency(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 120)

		deadline := p.Now() + sim.Time(60*time.Second)
		if err := readVia(p, fe, hl, "/data", 0, 1, deadline); err != nil {
			t.Fatalf("cold read: %v", err)
		}
		// Drop the buffer-cache copy so the warm read exercises the
		// segment-cache lookup instead of resolving in memory.
		f, err := hl.FS.Open(p, "/data")
		if err != nil {
			t.Fatal(err)
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		if err := readVia(p, fe, hl, "/data", 0, 1, deadline); err != nil {
			t.Fatalf("warm read: %v", err)
		}

		cold, warm := fe.Tracer.Request(1), fe.Tracer.Request(2)
		checkSealed(t, cold)
		checkSealed(t, warm)
		for _, kind := range []obs.Kind{
			obs.KindAdmission, obs.KindCacheLookup,
			obs.KindFetchWait, obs.KindMediaTransfer,
		} {
			if !hasKind(cold, kind) {
				t.Fatalf("cold read trace missing %s: %+v", kind, cold.Stages)
			}
		}
		if hasKind(warm, obs.KindFetchWait) || hasKind(warm, obs.KindMediaTransfer) {
			t.Fatalf("warm read went to tertiary: %+v", warm.Stages)
		}
		if !hasKind(warm, obs.KindCacheLookup) {
			t.Fatalf("warm read trace missing the cache lookup: %+v", warm.Stages)
		}
		started, sealed, _ := fe.Tracer.Counts()
		if started != 2 || sealed != 2 {
			t.Fatalf("tracer counts: started %d, sealed %d", started, sealed)
		}
	})
	k.Stop()
}

// TestCanceledRequestTraceCloses cancels a demand fetch mid-flight and
// checks the trace still seals: the abandoned fetch-wait stage is
// closed, the error is recorded, and the sum invariant holds.
func TestCanceledRequestTraceCloses(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 120)

		r, err := fe.SubmitAsync(p, svc.Interactive, 0, func(wp *sim.Proc) error {
			f, oerr := hl.FS.Open(wp, "/data")
			if oerr != nil {
				return oerr
			}
			buf := make([]byte, lfs.BlockSize)
			_, rerr := f.ReadAt(wp, buf, 0)
			return rerr
		})
		if err != nil {
			t.Fatal(err)
		}
		// Cancel once the fetch is in flight (the request has left the
		// queue but the cartridge load takes seconds).
		p.Sleep(200 * sim.Time(time.Millisecond))
		r.Cancel()
		if werr := r.Wait(p); !errors.Is(werr, sim.ErrCanceled) {
			t.Fatalf("canceled read returned %v, want ErrCanceled", werr)
		}

		tr := fe.Tracer.Request(r.ID)
		checkSealed(t, tr)
		if tr.Err == "" {
			t.Fatal("canceled trace recorded no error")
		}
	})
	k.Stop()
}

// TestDeadlineExpiredTraceCloses gives a fetch-bound read a deadline far
// shorter than a cartridge load, lets the context expire mid-fetch, and
// checks the sealed trace: deadline recorded, error recorded, all
// stages closed, sum invariant intact.
func TestDeadlineExpiredTraceCloses(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 120)

		deadline := p.Now() + 100*sim.Time(time.Millisecond)
		err := readVia(p, fe, hl, "/data", 0, 1, deadline)
		if err == nil {
			t.Fatal("read beat a 100ms deadline through a cartridge load")
		}

		tr := fe.Tracer.Request(1)
		checkSealed(t, tr)
		if tr.Deadline != deadline {
			t.Fatalf("trace deadline %v, want %v", tr.Deadline, deadline)
		}
		if tr.Err == "" {
			t.Fatal("expired trace recorded no error")
		}
		if tr.End > deadline && tr.End-deadline > sim.Time(time.Second) {
			t.Fatalf("request ran %v past its deadline before unwinding", tr.End-deadline)
		}
	})
	k.Stop()
}

// TestTracingDisabledLeavesNoTracer pins the DisableTracing escape
// hatch: no tracer, and requests still complete.
func TestTracingDisabledLeavesNoTracer(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{DisableTracing: true})
		migrateAndEject(t, p, hl, "/data", 8)
		if fe.Tracer != nil {
			t.Fatal("DisableTracing left a tracer attached")
		}
		if err := readVia(p, fe, hl, "/data", 0, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	k.Stop()
}
