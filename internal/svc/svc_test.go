package svc_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fsck"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/svc"
)

// rig builds a two-library HighLight instance (replication factor 2) and
// returns the raw jukeboxes so tests can fail individual drives.
func rig(t *testing.T, p *sim.Proc, k *sim.Kernel) (*core.HighLight, *jukebox.Jukebox, *jukebox.Jukebox) {
	t.Helper()
	disk := dev.NewDisk(k, dev.RZ57, 256*64, nil)
	jb0 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	jb1 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	hl, err := core.New(p, core.Config{
		SegBlocks:   64,
		Disks:       []dev.BlockDev{disk},
		Jukeboxes:   []jukebox.Footprint{jb0, jb1},
		CacheSegs:   24,
		MaxInodes:   256,
		Replicas:    2,
		BufferBytes: 64 * lfs.BlockSize,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	return hl, jb0, jb1
}

// migrateAndEject creates path with nblocks deterministic blocks, migrates
// it to tertiary, and drops every cache line so reads must fetch.
func migrateAndEject(t *testing.T, p *sim.Proc, hl *core.HighLight, path string, nblocks int) []byte {
	t.Helper()
	f, err := hl.FS.Create(p, path)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, nblocks*lfs.BlockSize)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := hl.FS.Sync(p); err != nil {
		t.Fatal(err)
	}
	if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
		t.Fatal(err)
	}
	if err := hl.CompleteMigration(p); err != nil {
		t.Fatal(err)
	}
	ejectAll(t, hl)
	return data
}

func ejectAll(t *testing.T, hl *core.HighLight) {
	t.Helper()
	for _, l := range hl.Cache.Lines() {
		if !l.Staging && l.Pins == 0 {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func auditVerdicts(hl *core.HighLight) map[string]int {
	out := map[string]int{}
	for _, d := range hl.Audit.All() {
		out[d.Verdict]++
	}
	return out
}

// readVia issues one admission-controlled read of nblocks at off through
// the front end.
func readVia(p *sim.Proc, fe *svc.FrontEnd, hl *core.HighLight, path string, off int64, nblocks int, deadline sim.Time) error {
	return fe.Submit(p, svc.Interactive, deadline, func(wp *sim.Proc) error {
		f, err := hl.FS.Open(wp, path)
		if err != nil {
			return err
		}
		buf := make([]byte, nblocks*lfs.BlockSize)
		_, err = f.ReadAt(wp, buf, off)
		return err
	})
}

// TestAdmitExecuteComplete walks requests through the full lifecycle:
// admitted, queued, executed against the tertiary fetch path, completed,
// with latency histograms populated and the admissions audited.
func TestAdmitExecuteComplete(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 120)

		deadline := p.Now() + sim.Time(60*time.Second)
		for i := 0; i < 3; i++ {
			if err := readVia(p, fe, hl, "/data", int64(i)*lfs.BlockSize, 1, deadline); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		st := fe.Stats()
		if st.Admitted != 3 || st.Completed != 3 || st.Failed != 0 {
			t.Fatalf("stats: %+v", st)
		}
		if st.DeadlineMisses != 0 {
			t.Fatalf("deadline misses on a 60s budget: %+v", st)
		}
		if st.P50Interactive <= 0 || st.P99Interactive < st.P50Interactive {
			t.Fatalf("latency quantiles not populated: p50=%v p99=%v", st.P50Interactive, st.P99Interactive)
		}
		if hl.Svc.Stats().Fetches == 0 {
			t.Fatal("reads never reached the tertiary fetch path")
		}
		if v := auditVerdicts(hl); v[attr.VerdictAdmitted] < 3 {
			t.Fatalf("admissions not audited: %v", v)
		}
	})
	k.Stop()
}

// TestOverloadShedsExplicitly fills both class queues past capacity and
// checks every excess submission is refused immediately with ErrOverload —
// and that admitted requests still reach a terminal state (no silent
// stalls anywhere).
func TestOverloadShedsExplicitly(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{Workers: 2, InteractiveQueue: 2, BackgroundQueue: 1})

		var admitted []*svc.Request
		sheds := 0
		submit := func(class svc.Class, n int) {
			for i := 0; i < n; i++ {
				r, err := fe.SubmitAsync(p, class, 0, func(wp *sim.Proc) error {
					wp.Sleep(sim.Time(time.Millisecond))
					return nil
				})
				if err != nil {
					if !errors.Is(err, svc.ErrOverload) {
						t.Fatalf("shed with wrong error: %v", err)
					}
					if r != nil {
						t.Fatal("shed returned a live request")
					}
					sheds++
					continue
				}
				admitted = append(admitted, r)
			}
		}
		// Submissions are back-to-back in one proc, so no worker runs in
		// between: the queues genuinely fill.
		submit(svc.Interactive, 6)
		submit(svc.Background, 3)
		if sheds != 4+2 {
			t.Fatalf("expected 6 sheds (4 interactive, 2 background), got %d", sheds)
		}
		for _, r := range admitted {
			if err := r.Wait(p); err != nil {
				t.Fatalf("admitted request %d failed: %v", r.ID, err)
			}
			if !r.Finished() {
				t.Fatalf("request %d did not reach a terminal state", r.ID)
			}
		}
		st := fe.Stats()
		if st.Shed != 6 || st.Admitted != 3 || st.Completed != 3 {
			t.Fatalf("stats: %+v", st)
		}
		if v := auditVerdicts(hl); v[attr.VerdictShed] < 6 {
			t.Fatalf("sheds not audited: %v", v)
		}

		// The retry budget bounds resubmissions: the 8 banked tokens (3
		// admissions earned none), then denial.
		for i := 0; i < 8; i++ {
			if !fe.AllowRetry() {
				t.Fatalf("banked retry token %d refused", i)
			}
		}
		if fe.AllowRetry() {
			t.Fatal("retry budget not enforced")
		}
		if st := fe.Stats(); st.RetriesGranted != 8 || st.RetriesDenied != 1 {
			t.Fatalf("retry accounting: %+v", st)
		}
	})
	k.Stop()
}

// TestQueuedExpiryShedsWithoutSideEffects saturates the workers and lets a
// short-deadline request expire while still queued: it must fail with the
// deadline error before its body runs — no tertiary fetch queued, no cache
// line touched.
func TestQueuedExpiryShedsWithoutSideEffects(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{Workers: 2})
		migrateAndEject(t, p, hl, "/data", 120)

		fetches0 := hl.Svc.Stats().Fetches
		lines0 := len(hl.Cache.Lines())

		// Two blockers occupy both workers for 100 ms.
		var blockers []*svc.Request
		for i := 0; i < 2; i++ {
			r, err := fe.SubmitAsync(p, svc.Interactive, 0, func(wp *sim.Proc) error {
				wp.Sleep(sim.Time(100 * time.Millisecond))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			blockers = append(blockers, r)
		}
		ran := false
		r, err := fe.SubmitAsync(p, svc.Interactive, p.Now()+sim.Time(10*time.Millisecond), func(wp *sim.Proc) error {
			ran = true
			return readVia(wp, fe, hl, "/data", 0, 1, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		werr := r.Wait(p)
		if !errors.Is(werr, sim.ErrDeadlineExceeded) {
			t.Fatalf("queued expiry returned %v, want ErrDeadlineExceeded", werr)
		}
		if ran {
			t.Fatal("expired request body ran anyway")
		}
		for _, b := range blockers {
			if err := b.Wait(p); err != nil {
				t.Fatalf("blocker: %v", err)
			}
		}
		if got := hl.Svc.Stats().Fetches; got != fetches0 {
			t.Fatalf("expired request queued a tertiary fetch: %d -> %d", fetches0, got)
		}
		if got := len(hl.Cache.Lines()); got != lines0 {
			t.Fatalf("expired request touched the cache: %d -> %d lines", lines0, got)
		}
		st := fe.Stats()
		if st.ExpiredInQueue != 1 {
			t.Fatalf("stats: %+v", st)
		}
		found := false
		for _, d := range hl.Audit.All() {
			if d.Verdict == attr.VerdictShed && strings.Contains(d.Reason, "expired in queue") {
				found = true
			}
		}
		if !found {
			t.Fatal("queued expiry not audited")
		}
	})
	k.Stop()
}

// TestCancelMidCopyoutLeavesConsistentState cancels a background migration
// while its staging stream is live. The cancellation must land on a chunk
// boundary: the staging segment and scheduled copyouts finish normally,
// CompleteMigration closes cleanly, and the volume checker finds nothing
// wrong — with the file contents intact and full replication preserved.
func TestCancelMidCopyoutLeavesConsistentState(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})

		f, err := hl.FS.Create(p, "/big")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 6*64*lfs.BlockSize) // six staging segments
		for i := range data {
			data[i] = byte(i*11 + 3)
		}
		if _, err := f.WriteAt(p, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}

		r, err := fe.SubmitAsync(p, svc.Background, 0, func(wp *sim.Proc) error {
			_, merr := hl.MigrateFiles(wp, []uint32{f.Inum()}, false)
			return merr
		})
		if err != nil {
			t.Fatal(err)
		}
		// Cancel as soon as the staging stream opens — well before the six
		// segments are through.
		for !hl.StagingOpen() && !r.Finished() {
			p.Sleep(sim.Time(time.Millisecond))
		}
		r.Cancel()
		werr := r.Wait(p)
		if !errors.Is(werr, sim.ErrCanceled) {
			t.Fatalf("canceled migration returned %v, want ErrCanceled", werr)
		}

		if err := hl.CompleteMigration(p); err != nil {
			t.Fatalf("CompleteMigration after cancel: %v", err)
		}
		if hl.StagingOpen() {
			t.Fatal("staging still open after CompleteMigration")
		}
		rep, err := fsck.Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck after mid-copyout cancel:\n%s", rep.Summary())
		}
		if defs := hl.ReplicationDeficits(); len(defs) != 0 {
			t.Fatalf("replica catalog inconsistent after cancel: %+v", defs)
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("file contents changed by canceled migration")
		}
	})
	k.Stop()
}

// TestCancelAfterCompleteIsIdempotent cancels a request that already
// finished — once and then again — and checks the recorded outcome and the
// front-end accounting are untouched: cancellation is a no-op after
// completion, not a retroactive failure.
func TestCancelAfterCompleteIsIdempotent(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 8)

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
		if werr := r.Wait(p); werr != nil {
			t.Fatal(werr)
		}
		if !r.Finished() {
			t.Fatal("request not finished after Wait")
		}
		before := fe.Stats()
		r.Cancel()
		r.Cancel()
		if r.Err() != nil {
			t.Fatalf("cancel after completion rewrote the outcome: %v", r.Err())
		}
		if werr := r.Wait(p); werr != nil {
			t.Fatalf("Wait after late cancel: %v", werr)
		}
		after := fe.Stats()
		if after.Completed != before.Completed || after.Failed != before.Failed {
			t.Fatalf("late cancel disturbed accounting: before %+v, after %+v", before, after)
		}
	})
	k.Stop()
}

// TestBreakerTripRerouteRestore drives the per-library circuit breaker
// through its whole life from real I/O outcomes: consecutive infrastructure
// failures trip it, an open breaker is routed around so reads are served
// from the healthy replica library, and after the cooldown a half-open
// probe against the recovered library restores it.
func TestBreakerTripRerouteRestore(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, jb0, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 120)
		lib1 := hl.Libraries()[1]

		// Library 0 loses both drives (infrastructure failure the library
		// cannot hide) while library 1 is administratively down, so every
		// fetch attempts lib0 first and fails with ErrDriveOffline.
		jb0.SetDriveOffline(0, true)
		jb0.SetDriveOffline(1, true)
		lib1.SetDown(true)
		for i := 0; i < 3; i++ {
			err := readVia(p, fe, hl, "/data", 0, 1, 0)
			if err == nil {
				t.Fatalf("read %d succeeded with no library serviceable", i)
			}
			if errors.Is(err, svc.ErrOverload) {
				t.Fatalf("infra failure misreported as overload: %v", err)
			}
		}
		if got := fe.Breakers.State(0); got != svc.BreakerOpen {
			t.Fatalf("breaker 0 state after 3 consecutive failures: %d, want open", got)
		}
		if v := auditVerdicts(hl); v[attr.VerdictTripped] == 0 {
			t.Fatalf("trip not audited: %v", v)
		}

		// Reroute: library 1 comes back while breaker 0 is still open. The
		// read must succeed from the healthy library, and the breaker must
		// stay open (no probe inside the cooldown).
		lib1.SetDown(false)
		if err := readVia(p, fe, hl, "/data", 0, 1, 0); err != nil {
			t.Fatalf("read with tripped lib 0 and healthy lib 1: %v", err)
		}
		if got := fe.Breakers.State(0); got != svc.BreakerOpen {
			t.Fatalf("breaker 0 closed without a successful probe: %d", got)
		}

		// Restore: lib 0's drives return, and lib 1 is held down so the
		// half-open probe is guaranteed to be attempted against lib 0.
		jb0.SetDriveOffline(0, false)
		jb0.SetDriveOffline(1, false)
		lib1.SetDown(true)
		p.Sleep(3 * sim.Time(time.Second)) // past the 2 s cooldown
		ejectAll(t, hl)
		// A block no earlier read touched and the file system's block
		// buffer evicted long ago: the read must demand-fetch, and the
		// fetch router must consult (and probe) breaker 0.
		if err := readVia(p, fe, hl, "/data", 40*lfs.BlockSize, 1, 0); err != nil {
			t.Fatalf("probe read after recovery: %v", err)
		}
		if got := fe.Breakers.State(0); got != svc.BreakerClosed {
			t.Fatalf("breaker 0 not restored after successful probe: %d", got)
		}
		v := auditVerdicts(hl)
		if v[attr.VerdictProbed] == 0 || v[attr.VerdictRestored] == 0 {
			t.Fatalf("probe/restore not audited: %v", v)
		}

		// Full service resumes: whole file readable, byte-exact.
		lib1.SetDown(false)
		ejectAll(t, hl)
		f, err := hl.FS.Open(p, "/data")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 120*lfs.BlockSize)
		if _, err := f.ReadAt(p, got, 0); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != byte(i*13+5) {
				t.Fatalf("byte %d corrupted after breaker exercise", i)
			}
		}
	})
	k.Stop()
}

// TestBreakerStateMachine unit-tests the breaker transitions against a
// synthetic outcome stream: media errors do not trip, consecutive infra
// failures do, failed probes double the cooldown, and a successful probe
// restores and resets it.
func TestBreakerStateMachine(t *testing.T) {
	k := sim.NewKernel()
	o := obs.New(k)
	audit := attr.NewAudit(0)
	b := svc.NewBreakerSet(k, 2, o, audit) // threshold 3, cooldown 2 s, doubling
	infra := jukebox.ErrDriveOffline
	k.RunProc(func(p *sim.Proc) {
		if !b.Allow(0) || !b.Allow(1) {
			t.Fatal("fresh breakers refuse traffic")
		}
		// Media errors reset the consecutive count: infra, infra, media,
		// then three infra is what trips a threshold-3 breaker.
		b.OnResult(0, infra)
		b.OnResult(0, infra)
		b.OnResult(0, dev.ErrPermanentMedia)
		b.OnResult(0, infra)
		b.OnResult(0, infra)
		if b.State(0) != svc.BreakerClosed {
			t.Fatal("tripped below threshold (media error did not reset)")
		}
		b.OnResult(0, infra)
		if b.State(0) != svc.BreakerOpen {
			t.Fatal("did not trip at threshold")
		}
		if b.Allow(0) {
			t.Fatal("open breaker allowed traffic inside cooldown")
		}
		if !b.Allow(1) {
			t.Fatal("library 1's breaker affected by library 0's trip")
		}

		// First probe window: Allow converts to a single half-open grant.
		p.Sleep(sim.Time(2100 * time.Millisecond))
		if !b.Allow(0) {
			t.Fatal("no probe granted after cooldown")
		}
		if b.State(0) != svc.BreakerHalfOpen {
			t.Fatal("probe grant did not half-open the breaker")
		}
		if b.Allow(0) {
			t.Fatal("second probe granted in the same window")
		}
		// Failed probe: back to open with a doubled cooldown.
		b.OnResult(0, infra)
		if b.State(0) != svc.BreakerOpen {
			t.Fatal("failed probe did not re-open")
		}
		p.Sleep(sim.Time(2100 * time.Millisecond))
		if b.Allow(0) {
			t.Fatal("re-opened breaker ignored its doubled cooldown")
		}
		p.Sleep(sim.Time(2100 * time.Millisecond))
		if !b.Allow(0) {
			t.Fatal("no probe after doubled cooldown")
		}
		// Successful probe restores and resets the cooldown.
		b.OnResult(0, nil)
		if b.State(0) != svc.BreakerClosed || !b.Allow(0) {
			t.Fatal("successful probe did not restore")
		}
	})
	k.Stop()

	// Out-of-range libraries and a nil set are safe no-ops.
	if b.State(-1) != svc.BreakerClosed || b.State(99) != svc.BreakerClosed {
		t.Fatal("out-of-range State not closed")
	}
	if !b.Allow(99) {
		t.Fatal("out-of-range Allow refused")
	}
	b.OnResult(99, infra)
	var nb *svc.BreakerSet
	if !nb.Allow(0) || nb.State(0) != svc.BreakerClosed || nb.Describe() != nil {
		t.Fatal("nil BreakerSet not a no-op")
	}
	nb.OnResult(0, infra)
}

// TestBrownoutHysteresis checks the graceful-degradation ordering: a deep
// interactive queue puts the front end in brownout (repair and migration
// throttles report true), and it exits only after the queue drains past the
// low watermark — both transitions audited.
func TestBrownoutHysteresis(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{
			Workers: 2, InteractiveQueue: 8, // brownout at a backlog of 4, out at 1
		})
		m := &migrate.Migrator{}
		fe.AttachMigrator(m)
		if m.Throttle == nil {
			t.Fatal("AttachMigrator did not wire the throttle")
		}
		if fe.InBrownout() {
			t.Fatal("brownout at idle")
		}

		var reqs []*svc.Request
		for i := 0; i < 5; i++ {
			r, err := fe.SubmitAsync(p, svc.Interactive, 0, func(wp *sim.Proc) error {
				wp.Sleep(sim.Time(5 * time.Millisecond))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
		if !fe.InBrownout() {
			t.Fatal("queue depth over high watermark did not enter brownout")
		}
		// Both background throttles see the brownout.
		if hl.RepairThrottle == nil || !hl.RepairThrottle() || !m.Throttle() {
			t.Fatal("brownout not visible to repair/migration throttles")
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if fe.InBrownout() {
			t.Fatal("drained queue did not exit brownout")
		}
		enters, exits := 0, 0
		for _, d := range hl.Audit.All() {
			if d.Verdict != attr.VerdictBrownout {
				continue
			}
			if strings.HasPrefix(d.Reason, "enter") {
				enters++
			} else {
				exits++
			}
		}
		if enters != 1 || exits != 1 {
			t.Fatalf("brownout transitions audited %d/%d times, want 1/1", enters, exits)
		}
	})
	k.Stop()
}

// TestFrontEndMetricsExported pins that the front end's instruments are in
// the instance's obs registry, which `hlbench -serve` renders as /metrics
// with no svc-specific code: a rig with a FrontEnd attached has the
// admission counters, the per-class queue gauges, the brownout gauge and
// the interactive latency histogram.
func TestFrontEndMetricsExported(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		migrateAndEject(t, p, hl, "/data", 60)
		deadline := p.Now() + sim.Time(30*time.Second)
		for i := 0; i < 2; i++ {
			if err := readVia(p, fe, hl, "/data", int64(i)*lfs.BlockSize, 1, deadline); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		got := map[string]int64{}
		for _, c := range hl.Obs.Counters() {
			got["counter "+c.Name] = c.Value()
		}
		for _, g := range hl.Obs.Gauges() {
			got["gauge "+g.Name] = g.Value()
		}
		for _, h := range hl.Obs.Histograms() {
			got["histogram "+h.Name] = h.N
		}
		for name, want := range map[string]int64{
			"counter svc.admitted":              2,
			"counter svc.completed":             2,
			"counter svc.shed":                  0,
			"gauge svc.queue.interactive":       0,
			"gauge svc.queue.background":        0,
			"gauge svc.brownout":                0,
			"histogram svc.latency.interactive": 2,
		} {
			if v, ok := got[name]; !ok || v != want {
				t.Errorf("%s = %d (registered: %v), want %d", name, v, ok, want)
			}
		}
	})
	k.Stop()
}
