package svc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/fsck"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/wl"
)

const soakSeed = 20260808

// runOverloadOutageSoak is the combined chaos scenario of the overload
// work: a bursty multi-client flood through the admission-controlled front
// end while one library suffers a whole-changer outage and the other loses
// both drives for a window, with a replica repair pass every ten seconds.
// It returns a digest of everything externally observable, so the caller
// can assert two runs are bit-identical.
//
// Invariants checked inside:
//   - zero data loss: every file reads back byte-exact after the storm;
//   - overload was real (sheds happened) and every shed was the explicit
//     ErrOverload — no request stalled silently (RunClients returning at
//     all proves every Submit reached a terminal state);
//   - the volume checker and the replica catalog come back clean.
func runOverloadOutageSoak(t *testing.T, seed uint64) string {
	t.Helper()
	k := sim.NewKernel()
	var digest string
	k.RunProc(func(p *sim.Proc) {
		disk := dev.NewDisk(k, dev.RZ57, 512*64, nil)
		jb0 := jukebox.MustNew(k, jukebox.MO6300, 2, 6, 32, 64*lfs.BlockSize, nil)
		jb1 := jukebox.MustNew(k, jukebox.MO6300, 2, 6, 32, 64*lfs.BlockSize, nil)
		hl, err := core.New(p, core.Config{
			SegBlocks:   64,
			Disks:       []dev.BlockDev{disk},
			Jukeboxes:   []jukebox.Footprint{jb0, jb1},
			CacheSegs:   6,
			MaxInodes:   256,
			Replicas:    2,
			BufferBytes: 64 * lfs.BlockSize,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		// Repair stands down in brownout and while copy-outs are on their
		// way; a pass that fails because a library is down is tried again
		// at the next tick.
		var fe *svc.FrontEnd
		k.GoDaemon("hl-repair", func(rp *sim.Proc) {
			for {
				rp.Sleep(10 * sim.Time(time.Second))
				if !fe.Stats().Brownout && hl.Svc.OutstandingCopyouts() == 0 {
					hl.RepairPass(rp)
				}
			}
		})
		fe = svc.New(hl, svc.Config{
			Workers: 2, ReservedInteractive: 1,
			InteractiveQueue: 4, BackgroundQueue: 2, // brownout at a backlog of 2, out at 0
		})
		maxLent := watchSlots(t, fe) // the slot bounds, at every transition of the storm

		// A small tree of files, fully migrated and replicated before the
		// storm, with their pre-storm hashes recorded.
		rng := sim.NewRNG(seed)
		var paths []string
		var inums []uint32
		want := map[string][32]byte{}
		for i := 0; i < 24; i++ {
			path := fmt.Sprintf("/f%02d", i)
			f, err := hl.FS.Create(p, path)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, (20+rng.Intn(13))*lfs.BlockSize)
			for j := range data {
				data[j] = byte(int(seed) + i*31 + j)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			want[path] = sha256.Sum256(data)
			paths = append(paths, path)
			inums = append(inums, f.Inum())
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, inums, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		ejectAll(t, hl)
		base := p.Now() // setup burns virtual time; schedule faults after it

		// The fault schedule, anchored to the post-setup clock: library 0
		// down for most of the storm, and — inside that window — library 1
		// loses both drives for twenty seconds, so fetch attempts against
		// it fail with infrastructure errors until the drives return while
		// library 0 is still dark.
		pl := fault.NewPlan(fault.Config{Seed: seed})
		pl.AddLibraryOutage(hl.Libraries()[0], fault.LibraryOutage{
			Start: base + 5*sim.Time(time.Second), End: base + 70*sim.Time(time.Second),
		})
		for d := 0; d < 2; d++ {
			pl.AddOutage(jb1, fault.Outage{
				Drive: d, Start: base + 10*sim.Time(time.Second), End: base + 30*sim.Time(time.Second),
			})
		}
		pl.Start(k)

		cs, err := wl.RunClients(p, fe, hl, paths, wl.ClientSpec{
			Clients:           8,
			RequestsPerClient: 60,
			Arrival:           wl.ArrivalBursty,
			MeanGap:           300 * sim.Time(time.Millisecond),
			BurstLen:          8,
			Deadline:          4 * sim.Time(time.Second),
			ReadBlocks:        2,
			Seed:              seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if cs.Completed == 0 {
			t.Fatalf("no request completed: %+v", cs)
		}
		if cs.Shed == 0 {
			t.Fatalf("overload never shed — the flood was not a flood: %+v", cs)
		}
		if got := cs.Completed + cs.Shed + cs.Expired + cs.Failed; got != cs.Submitted-cs.Retries {
			t.Fatalf("request accounting leak: %+v", cs)
		}

		// Let the storm fully pass, then let the repair passes restore
		// replication before the final audit.
		if until := base + 75*sim.Time(time.Second) - p.Now(); until > 0 {
			p.Sleep(until)
		}
		for i := 0; len(hl.ReplicationDeficits()) > 0; i++ {
			if i >= 30 {
				t.Fatalf("replication never recovered: %+v", hl.ReplicationDeficits())
			}
			p.Sleep(5 * sim.Time(time.Second))
		}
		rep, err := fsck.Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck after soak:\n%s", rep.Summary())
		}

		// Zero loss: every file byte-exact after outages, sheds, expiries,
		// brownouts, and repair.
		h := sha256.New()
		for _, path := range paths {
			f, err := hl.FS.Open(p, path)
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.Size(p)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, size)
			if _, err := f.ReadAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(data) != want[path] {
				t.Fatalf("%s corrupted by the soak", path)
			}
			fmt.Fprintf(h, "%s %x\n", path, sha256.Sum256(data))
		}
		// Property check over every retained trace of the storm: even
		// requests that shed, expired, or unwound mid-fetch must have
		// sealed with all stages closed and their critical-path breakdown
		// summing exactly to their latency.
		checked := 0
		validateAll := func(trs []*obs.Trace) {
			for _, tr := range trs {
				if !tr.Done {
					t.Fatalf("request %d: trace left open after the soak", tr.ID)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("soak trace invariant: %v", err)
				}
				checked++
			}
		}
		validateAll(fe.Tracer.Recent())
		for _, c := range fe.Tracer.Classes() {
			validateAll(fe.Tracer.Slowest(c, 1<<30))
		}
		if checked == 0 {
			t.Fatal("soak retained no traces to check")
		}
		started, sealed, stages := fe.Tracer.Counts()
		if started != sealed {
			t.Fatalf("trace leak: %d started, %d sealed", started, sealed)
		}

		st := fe.Stats()
		if *maxLent == 0 || st.Lent != 0 || st.Executing != 0 {
			t.Fatalf("slots: most lent %d, at rest %d lent and %d executing", *maxLent, st.Lent, st.Executing)
		}
		fmt.Fprintf(h, "clients %+v\n", cs)
		fmt.Fprintf(h, "svc %d %d %d %d %d %d\n",
			st.Admitted, st.Shed, st.ExpiredInQueue, st.Completed, st.Failed, st.DeadlineMisses)
		v := auditVerdicts(hl)
		fmt.Fprintf(h, "verdicts shed=%d brownout=%d\n", v[attr.VerdictShed], v[attr.VerdictBrownout])
		fmt.Fprintf(h, "traces %d %d %d checked %d\n", started, sealed, stages, checked)
		fmt.Fprintf(h, "audit %d now %d\n", hl.Audit.Total(), p.Now())
		digest = hex.EncodeToString(h.Sum(nil))
	})
	k.Stop()
	return digest
}

// TestOverloadLibraryOutageSoak runs the combined overload + outage chaos
// scenario twice and asserts the runs are observationally identical — the
// determinism guarantee the whole simulator rests on holds under admission
// control, cancellation, and fault injection all at once.
func TestOverloadLibraryOutageSoak(t *testing.T) {
	d1 := runOverloadOutageSoak(t, soakSeed)
	d2 := runOverloadOutageSoak(t, soakSeed)
	if d1 != d2 {
		t.Fatalf("soak not deterministic:\n  run1 %s\n  run2 %s", d1, d2)
	}
}
