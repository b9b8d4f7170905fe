package svc_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/wl"
)

// Slot lending: Config.Workers bounds the requests executing, and an
// interactive request asleep in a demand fetch lends its slot.

const second = sim.Time(time.Second)

// watchSlots fails the test the moment the front end's slot accounting
// leaves its bounds, and reports the most slots seen lent.
func watchSlots(t *testing.T, fe *svc.FrontEnd) (maxLent *int) {
	t.Helper()
	maxLent = new(int)
	w, general := fe.Cfg.Workers, fe.Cfg.Workers-fe.Cfg.ReservedInteractive
	fe.OnSlotChange(func(executing, background, lent int) {
		if executing < 0 || executing > w || background < 0 || background > general || lent < 0 || lent > w {
			t.Errorf("slots out of bounds: %d executing (of %d), %d of them not interactive (of %d), %d lent",
				executing, w, background, general, lent)
		}
		*maxLent = max(*maxLent, lent)
	})
	return maxLent
}

// twoSlots is the lending tests' front end: two slots, one reserved.
var twoSlots = svc.Config{Workers: 2, ReservedInteractive: 1}

// lendRig is a front end over n cold files (each its own tertiary segment,
// ejected) and one file whose segment is cached.
func lendRig(t *testing.T, p *sim.Proc, k *sim.Kernel, n int, cfg svc.Config) (*core.HighLight, *svc.FrontEnd, []string) {
	t.Helper()
	hl, _, _ := rig(t, p, k)
	var cold []string
	for i := 0; i < n; i++ {
		cold = append(cold, fmt.Sprintf("/cold%d", i))
		migrateAndEject(t, p, hl, cold[i], 60)
	}
	migrateAndEject(t, p, hl, "/hot", 60)
	// Drop the buffers migration left, fetch /hot's segment, drop the buffers
	// again: a read of /hot is now a hit in the segment cache.
	flush := func() {
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	if f, err := hl.FS.Open(p, "/hot"); err != nil {
		t.Fatal(err)
	} else if _, err := f.ReadAt(p, make([]byte, lfs.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	flush()
	return hl, svc.New(hl, cfg), cold
}

func submitRead(t *testing.T, p *sim.Proc, fe *svc.FrontEnd, hl *core.HighLight, class svc.Class, path string, deadline sim.Time) *svc.Request {
	t.Helper()
	r, err := fe.SubmitAsync(p, class, deadline, func(wp *sim.Proc) error {
		f, err := hl.FS.Open(wp, path)
		if err != nil {
			return err
		}
		_, err = f.ReadAt(wp, make([]byte, lfs.BlockSize), 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// waitParked sleeps until n requests are asleep in their fetches with their
// slots lent (each first reads its way through the directory and its inode).
func waitParked(t *testing.T, p *sim.Proc, fe *svc.FrontEnd, n int) {
	t.Helper()
	for i := 0; fe.Stats().Lent != n; i++ {
		if i == 100 {
			t.Fatalf("%d slots lent after a second, want %d: %+v", fe.Stats().Lent, n, fe.Stats())
		}
		p.Sleep(10 * sim.Time(time.Millisecond))
	}
}

// A cache hit submitted while every slot's request is asleep in a fetch runs
// at once and finishes before any of them: at the parent commit it waited for
// a worker.
func TestLendHitOvertakesParkedRequests(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, fe, cold := lendRig(t, p, k, 2, twoSlots)
		watchSlots(t, fe)
		parked := []*svc.Request{
			submitRead(t, p, fe, hl, svc.Interactive, cold[0], 0),
			submitRead(t, p, fe, hl, svc.Interactive, cold[1], 0),
		}
		waitParked(t, p, fe, 2)
		if n := fe.Stats().Executing; n != 0 {
			t.Fatalf("%d executing with both requests parked", n)
		}
		t0 := p.Now()
		if err := submitRead(t, p, fe, hl, svc.Interactive, "/hot", 0).Wait(p); err != nil {
			t.Fatal(err)
		}
		for i, r := range parked {
			if r.Finished() {
				t.Errorf("fetch %d finished before the hit did (%v after its submission)", i, p.Now()-t0)
			}
		}
		for _, r := range parked {
			if err := r.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if st := fe.Stats(); st.Lent != 0 || st.Executing != 0 {
			t.Errorf("at rest: %d lent, %d executing", st.Lent, st.Executing)
		}
	})
	k.Stop()
}

// Background work neither lends nor borrows: asleep in a fetch it keeps its
// slot, and it does not start in a slot an interactive request has lent.
func TestLendBackgroundNeitherLendsNorBorrows(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, fe, cold := lendRig(t, p, k, 3, twoSlots)
		watchSlots(t, fe)

		bg := submitRead(t, p, fe, hl, svc.Background, cold[2], 0)
		p.Sleep(50 * sim.Time(time.Millisecond))
		if st := fe.Stats(); st.Lent != 0 || st.Executing != 1 {
			t.Errorf("background request asleep in its fetch: %d lent, %d executing, want 0 and 1", st.Lent, st.Executing)
		}
		if err := bg.Wait(p); err != nil {
			t.Fatal(err)
		}

		parked := []*svc.Request{
			submitRead(t, p, fe, hl, svc.Interactive, cold[0], 0),
			submitRead(t, p, fe, hl, svc.Interactive, cold[1], 0),
		}
		waitParked(t, p, fe, 2)
		var inFlight int
		bg, err := fe.SubmitAsync(p, svc.Background, 0, func(*sim.Proc) error {
			st := fe.Stats()
			inFlight = st.Executing + st.Lent
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(50 * sim.Time(time.Millisecond))
		if bg.Finished() || fe.Stats().Lent != 2 {
			t.Errorf("background request ran (%v) with both slots lent (%d)", bg.Finished(), fe.Stats().Lent)
		}
		if err := bg.Wait(p); err != nil {
			t.Fatal(err)
		}
		if inFlight > fe.Cfg.Workers {
			t.Errorf("background request started with %d requests holding or lending the %d slots", inFlight, fe.Cfg.Workers)
		}
		for _, r := range parked {
			if err := r.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	k.Stop()
}

// A deadline that passes while the request is parked ends the loan on the way
// out, at the deadline instant: nothing stays lent, and the slot serves the
// next request.
func TestLendDeadlineWhileParkedReturnsTheLoan(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, fe, cold := lendRig(t, p, k, 2, twoSlots)
		watchSlots(t, fe)
		deadline := p.Now() + 300*sim.Time(time.Millisecond)
		r := submitRead(t, p, fe, hl, svc.Interactive, cold[0], deadline)
		waitParked(t, p, fe, 1)
		if err := r.Wait(p); !errors.Is(err, sim.ErrDeadlineExceeded) {
			t.Fatalf("parked request past its deadline: %v", err)
		}
		if late := p.Now() - deadline; late != 0 {
			t.Errorf("the parked request's Wait returned %v after its deadline, want at it", late)
		}
		if st := fe.Stats(); st.Lent != 0 || st.Executing != 0 {
			t.Errorf("after the abandoned wait: %d lent, %d executing", st.Lent, st.Executing)
		}
		for _, path := range []string{cold[1], cold[0], "/hot"} {
			if err := submitRead(t, p, fe, hl, svc.Interactive, path, 0).Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if st := fe.Stats(); st.Lent != 0 || st.Executing != 0 || st.Completed != 3 {
			t.Errorf("at rest: %+v", st)
		}
	})
	k.Stop()
}

// lendingRun is six closed-loop readers over eight cold files on two slots,
// digested; the slot bounds are checked at every transition.
func lendingRun(t *testing.T) string {
	k := sim.NewKernel()
	var digest string
	k.RunProc(func(p *sim.Proc) {
		hl, fe, cold := lendRig(t, p, k, 8, twoSlots)
		maxLent := watchSlots(t, fe)
		cs, err := wl.RunClients(p, fe, hl, append(cold, "/hot"), wl.ClientSpec{
			Clients: 6, RequestsPerClient: 12, Arrival: wl.ArrivalPoisson,
			MeanGap: 200 * sim.Time(time.Millisecond), Deadline: 30 * second, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := fe.Stats()
		if *maxLent != fe.Cfg.Workers || st.Lent != 0 || st.Executing != 0 {
			t.Errorf("most slots lent %d (want all %d); at rest %d lent, %d executing", *maxLent, fe.Cfg.Workers, st.Lent, st.Executing)
		}
		if cs.Completed != 72 {
			t.Errorf("clients: %+v", cs)
		}
		digest = fmt.Sprintf("%+v %+v %d %d", cs, st, *maxLent, p.Now())
	})
	k.Stop()
	return digest
}

func TestLendDoubleRunIdentical(t *testing.T) {
	if a, b := lendingRun(t), lendingRun(t); a != b {
		t.Errorf("two runs differ:\n%s\n%s", a, b)
	}
}

// A request that reaches its fetch holding the file-system lock (here a
// partial-block write into a cold file, which reads the block first; a reader
// on its locked fallback is the same) keeps its slot: the requests that would
// take it all queue on that lock, and none could give it back.
func TestLendNotUnderTheFileSystemLock(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, fe, cold := lendRig(t, p, k, 1, twoSlots)
		maxLent := watchSlots(t, fe)
		holder, err := fe.SubmitAsync(p, svc.Interactive, 0, func(wp *sim.Proc) error {
			f, err := hl.FS.Open(wp, cold[0])
			if err != nil {
				return err
			}
			_, err = f.WriteAt(wp, make([]byte, lfs.BlockSize/2), 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; hl.Svc.Stats().MaxPending == 0; i++ {
			if i == 100 {
				t.Fatal("the write never fetched")
			}
			p.Sleep(10 * sim.Time(time.Millisecond))
		}
		// More interactive reads than there are slots, all of which need the
		// lock the sleeping writer holds.
		var reads []*svc.Request
		for i := 0; i < 2*fe.Cfg.Workers; i++ {
			reads = append(reads, submitRead(t, p, fe, hl, svc.Interactive, "/hot", 0))
		}
		for _, r := range append(reads, holder) {
			if err := r.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if st := fe.Stats(); *maxLent != 0 || st.Lent != 0 || st.Executing != 0 {
			t.Errorf("most slots lent %d (want none: the only fetch ran under the lock); at rest %+v", *maxLent, st)
		}
	})
	k.Stop()
}

// Lending does not let more interactive work in: a request running in a
// borrowed slot counts against InteractiveQueue, and towards the brownout
// watermarks, as the queued request it would be if slots were not lent.
func TestLendBorrowedSlotsCountAsQueued(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		cfg := twoSlots
		cfg.InteractiveQueue = 3 // brownout at a backlog of 1, out at 0
		hl, fe, cold := lendRig(t, p, k, 4, cfg)
		watchSlots(t, fe)
		var reqs []*svc.Request
		for _, path := range cold[:2] {
			reqs = append(reqs, submitRead(t, p, fe, hl, svc.Interactive, path, 0))
		}
		waitParked(t, p, fe, 2)
		if fe.Stats().Brownout {
			t.Error("brownout with two requests in flight on two slots")
		}
		// Two more run in the lent slots and park holding them: four in flight,
		// as many as two workers and a queue of two held before.
		for _, path := range cold[2:] {
			reqs = append(reqs, submitRead(t, p, fe, hl, svc.Interactive, path, 0))
		}
		p.Sleep(50 * sim.Time(time.Millisecond))
		if st := fe.Stats(); st.Executing != 2 || st.Lent != 2 || st.QueueInteractive != 0 || !st.Brownout {
			t.Errorf("four in flight: %+v, want 2 executing, 2 lent, none queued, brownout", st)
		}
		reqs = append(reqs, submitRead(t, p, fe, hl, svc.Interactive, "/hot", 0))
		if _, err := fe.SubmitAsync(p, svc.Interactive, 0, func(*sim.Proc) error { return nil }); !errors.Is(err, svc.ErrOverload) {
			t.Errorf("sixth request, with two slots and a queue of three: %v, want ErrOverload", err)
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if st := fe.Stats(); st.Lent != 0 || st.Executing != 0 || st.Brownout || st.Shed != 1 {
			t.Errorf("at rest: %+v", st)
		}
	})
	k.Stop()
}
