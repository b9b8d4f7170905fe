package tertiary

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/sim"
)

// Late line binding: a fetch is dispatched without a cache line, and the I/O
// process takes one when the data has arrived (DESIGN.md, "Fetch path").

// A fetch that fails has cost no resident line. At the parent commit the
// victim was evicted when the fetch was queued, and the failure gave back an
// empty segment.
func TestFailedFetchEvictsNothing(t *testing.T) {
	e := newEnv(t, 2)
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "read" && vol == 0 && seg == 2 {
			return dev.ErrPermanentMedia
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		for tag := 0; tag < 2; tag++ {
			e.seed(t, p, tag, byte(tag+1))
			if _, err := e.svc.DemandFetch(p, tag); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.svc.DemandFetch(p, 2); !errors.Is(err, ErrSegmentUnavailable) {
			t.Fatalf("fetch of the unreadable segment: %v", err)
		}
		for tag := 0; tag < 2; tag++ {
			if _, ok := e.c.Lookup(tag, p.Now()); !ok {
				t.Errorf("segment %d lost its line to a fetch that failed", tag)
			}
		}
		if e.evicted != 0 || e.c.FreeLines() != 0 {
			t.Errorf("%d lines evicted, %d free, want both resident lines untouched", e.evicted, e.c.FreeLines())
		}
	})
	e.k.Stop()
}

// The victim is chosen when the data arrives: the LRU line of the moment the
// fetch was queued is hit while the segment is still coming off its medium,
// and the other line goes.
func TestLineHitInFlightIsNotTheVictim(t *testing.T) {
	e := newEnv(t, 2)
	e.k.RunProc(func(p *sim.Proc) {
		for tag := 0; tag < 3; tag++ {
			e.seed(t, p, tag, byte(tag+1))
		}
		for tag := 0; tag < 2; tag++ { // 0 is the older line
			if _, err := e.svc.DemandFetch(p, tag); err != nil {
				t.Fatal(err)
			}
		}
		fetched := false
		e.k.Go("reader", func(rp *sim.Proc) {
			if _, err := e.svc.DemandFetch(rp, 2); err != nil {
				t.Error(err)
			}
			fetched = true
		})
		p.Sleep(time.Millisecond)
		if fetched || e.evicted != 0 {
			t.Fatalf("1 ms into the fetch: done %v, %d lines evicted, want it in flight with both lines resident", fetched, e.evicted)
		}
		if _, ok := e.c.Lookup(0, p.Now()); !ok {
			t.Fatal("line 0 gone while the fetch is in flight")
		}
		for !fetched {
			p.Sleep(10 * time.Millisecond)
		}
		if _, ok := e.c.Peek(0); !ok {
			t.Error("the line hit during the flight was the fetch's victim")
		}
		if _, ok := e.c.Peek(1); ok || e.evicted != 1 {
			t.Errorf("line 1 resident %v, %d evictions, want it to be the one victim", ok, e.evicted)
		}
	})
	e.k.Stop()
}

// With every line staging or pinned when the data arrives, the I/O process
// does not wait for one: the fetch is deferred (counted), the copy-out queued
// behind it on the same stream runs and frees a line, and the fetch is read
// again and succeeds.
func TestArrivalWithoutALineDefersToTheCopyout(t *testing.T) {
	e := newLibEnv(1, 1, 2)
	e.k.RunProc(func(p *sim.Proc) {
		e.seed(t, p, 0, 1)
		e.fetchAll(t, p, []int{0}, nil)
		clean, _ := e.c.Peek(0)
		// Tag 32's staging line takes the other segment; its copy-out is not
		// scheduled yet, so line 0 is a victim in waiting when tag 1's fetch
		// is dispatched.
		seg, _ := e.c.TakeFree()
		e.c.Insert(32, seg, true, p.Now())
		if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), fill(32)); err != nil {
			t.Fatal(err)
		}
		e.log = nil
		fetched := false
		e.k.Go("reader", func(rp *sim.Proc) {
			e.fetchAll(t, rp, []int{1}, nil)
			fetched = true
		})
		p.Sleep(time.Millisecond)
		if len(e.log) != 1 {
			t.Fatalf("1 ms in, transfers started: %v, want tag 1's media read", e.log)
		}
		// While the segment is in flight a reader pins the clean line and the
		// copy-out joins the queue of the one stream.
		e.svc.Pin(clean)
		e.svc.ScheduleCopyout(p, 32, seg)
		e.svc.DrainCopyouts(p)
		if got := e.svc.Stats().LateDefers; got != 1 || fetched {
			t.Fatalf("after the copy-out: %d late deferrals, fetch done %v, want the fetch deferred once and still waiting", got, fetched)
		}
		for !fetched {
			p.Sleep(10 * time.Millisecond)
		}
		if _, ok := e.c.Peek(32); ok {
			t.Error("the copied-out line is still resident: whose segment did the fetch take?")
		}
		if l, ok := e.c.Peek(0); !ok || l != clean || l.Pins != 1 {
			t.Errorf("the pinned line: resident %v, %+v", ok, l)
		}
		e.svc.Unpin(p, clean)
	})
	if got := e.libs[0].reads[1]; got != 2 {
		t.Errorf("tag 1 came off its medium %d times, want 2 (the deferred fetch reads again):\n%v", got, e.log)
	}
	if s := e.svc.Stats(); s.Fetches != 2 || s.Copyouts != 1 || s.FetchFaults != 0 || e.svc.Outstanding(0) != 0 {
		t.Errorf("stats %+v, %d outstanding", s, e.svc.Outstanding(0))
	}
	e.k.Stop()
}
