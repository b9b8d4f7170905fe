package svc_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
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
// with latency histograms populated and each admission marked in its
// request's trace.
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
		traces := fe.Tracer.Recent()
		if len(traces) != 3 {
			t.Fatalf("%d traces retained, want 3", len(traces))
		}
		for _, tr := range traces {
			if !slices.ContainsFunc(tr.Stages, func(s obs.Stage) bool { return s.Kind == obs.KindAdmission }) {
				t.Fatalf("request %d: no admission stage in its trace: %+v", tr.ID, tr.Stages)
			}
		}
	})
	k.Stop()
}

// TestDeadlinesSpawnNoProc: a request's deadline is a kernel timer, not a
// process, so requests with deadlines start exactly as many procs as the same
// requests without.
func TestDeadlinesSpawnNoProc(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		f, err := hl.FS.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		procs := func(deadline sim.Time) int {
			before := k.ProfileSnapshot().Procs
			for i := 0; i < 20; i++ {
				if err := readVia(p, fe, hl, "/f", 0, 1, deadline); err != nil {
					t.Fatal(err)
				}
			}
			return k.ProfileSnapshot().Procs - before
		}
		procs(0) // the first reads start what the file system starts once
		without := procs(0)
		if with := procs(p.Now() + sim.Time(time.Minute)); with != without {
			t.Errorf("20 requests started %d procs with deadlines, %d without", with, without)
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
		staging := func() bool {
			return slices.ContainsFunc(hl.Cache.Lines(), func(l *cache.Line) bool { return l.Staging })
		}
		for !staging() && !r.Finished() {
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
		if staging() {
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
		if werr := r.Wait(p); werr != nil {
			t.Fatalf("cancel after completion rewrote the outcome: %v", werr)
		}
		after := fe.Stats()
		if after.Completed != before.Completed || after.Failed != before.Failed {
			t.Fatalf("late cancel disturbed accounting: before %+v, after %+v", before, after)
		}
	})
	k.Stop()
}

// TestReadFailsOverToTheReplicaLibrary: with both of library 0's drives
// offline, a read of a replicated file is served byte-exact from library 1
// (the router ranks a copy no online drive holds below a loaded one, and the
// I/O process falls back to the next copy when a read fails), and once the
// drives return a demand fetch reads from library 0 again.
func TestReadFailsOverToTheReplicaLibrary(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, jb0, jb1 := rig(t, p, k)
		fe := svc.New(hl, svc.Config{})
		data := migrateAndEject(t, p, hl, "/data", 120)
		readAll := func() {
			t.Helper()
			f, err := hl.FS.Open(p, "/data")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := f.ReadAt(p, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read back corrupt data")
			}
		}

		jb0.SetDriveOffline(0, true)
		jb0.SetDriveOffline(1, true)
		r0, r1 := jb0.Stats().Reads, jb1.Stats().Reads
		if err := readVia(p, fe, hl, "/data", 0, 1, 0); err != nil {
			t.Fatalf("read with library 0's drives offline: %v", err)
		}
		readAll()
		if jb0.Stats().Reads != r0 || jb1.Stats().Reads == r1 {
			t.Fatalf("reads: library 0 %d -> %d, library 1 %d -> %d; want all from library 1",
				r0, jb0.Stats().Reads, r1, jb1.Stats().Reads)
		}

		jb0.SetDriveOffline(0, false)
		jb0.SetDriveOffline(1, false)
		ejectAll(t, hl)
		r0 = jb0.Stats().Reads
		// A block no earlier read touched and the file system's block
		// buffer evicted long ago: the read must demand-fetch.
		if err := readVia(p, fe, hl, "/data", 40*lfs.BlockSize, 1, 0); err != nil {
			t.Fatalf("read after the drives returned: %v", err)
		}
		if jb0.Stats().Reads == r0 {
			t.Fatal("library 0's drives are back but the demand fetch did not read from it")
		}
		ejectAll(t, hl)
		readAll()
	})
	k.Stop()
}

// TestBrownoutHysteresis checks the graceful-degradation ordering: a deep
// interactive queue puts the front end in brownout (the migrator's throttle
// reports true), and it exits only after the queue drains past the low
// watermark — both transitions audited.
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
		if fe.Stats().Brownout {
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
		if !fe.Stats().Brownout {
			t.Fatal("queue depth over high watermark did not enter brownout")
		}
		if !m.Throttle() {
			t.Fatal("brownout not visible to the migration throttle")
		}
		for _, r := range reqs {
			if err := r.Wait(p); err != nil {
				t.Fatal(err)
			}
		}
		if fe.Stats().Brownout {
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
// the instance's obs registry, which Obs.WriteSummary renders with no
// svc-specific code: a rig with a FrontEnd attached has the
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
