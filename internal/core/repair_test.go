package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// twoLibraryRig builds a two-changer HighLight instance with replication
// factor 2 and a buffer cache smaller than the test file, so re-reads
// must traverse the tertiary fetch path.
func twoLibraryRig(t *testing.T, p *sim.Proc, k *sim.Kernel) *HighLight {
	t.Helper()
	disk := dev.NewDisk(k, dev.RZ57, 256*64, nil)
	jb0 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	jb1 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
	hl, err := New(p, Config{
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
	return hl
}

// migrateTestFile creates /data, migrates it, and drops every cache line
// so later reads hit tertiary media. Returns the file and its contents.
func migrateTestFile(t *testing.T, p *sim.Proc, hl *HighLight) (*lfs.File, []byte) {
	t.Helper()
	f, err := hl.FS.Create(p, "/data")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 120*lfs.BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
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
	for _, l := range hl.Cache.Lines() {
		if !l.Staging && l.Pins == 0 {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f, data
}

func auditVerdicts(hl *HighLight) map[string]int {
	out := map[string]int{}
	for _, d := range hl.Audit.All() {
		out[d.Verdict]++
	}
	return out
}

// TestLibraryFailoverAndRepair is the tentpole acceptance check: with two
// libraries at replication factor 2, permanently failing either single
// library loses nothing — reads are served from surviving copies and a
// repair pass restores full replication on the healthy library, with the
// under-replication gauge back at zero and the placement, routing, and
// repair verdicts in the decision audit.
func TestLibraryFailoverAndRepair(t *testing.T) {
	for _, failDev := range []int{0, 1} {
		t.Run(fmt.Sprintf("failLibrary%d", failDev), func(t *testing.T) {
			k := sim.NewKernel()
			k.RunProc(func(p *sim.Proc) {
				hl := twoLibraryRig(t, p, k)
				f, data := migrateTestFile(t, p, hl)

				// Cross-library placement: every replica must live on a
				// different device than its primary.
				for prim, reps := range hl.ReplicaCatalog() {
					pd, _, _, _ := hl.Amap.Loc(hl.Amap.SegForIndex(prim))
					if len(reps) == 0 {
						t.Fatalf("primary %d has no replica", prim)
					}
					for _, r := range reps {
						rd, _, _, _ := hl.Amap.Loc(hl.Amap.SegForIndex(r))
						if rd == pd {
							t.Fatalf("replica %d of %d placed in the same library %d", r, prim, pd)
						}
					}
				}
				if len(hl.ReplicationDeficits()) != 0 {
					t.Fatalf("deficits before any failure: %+v", hl.ReplicationDeficits())
				}

				hl.Libraries()[failDev].SetDown(true)
				defs := hl.ReplicationDeficits()
				if len(defs) == 0 {
					t.Fatal("library failure produced no replication deficit")
				}
				for _, d := range defs {
					if len(d.Sources) == 0 {
						t.Fatalf("segment %d has no surviving repair source", d.Tag)
					}
				}

				// Reads must keep working through the surviving copies.
				got := make([]byte, len(data))
				if _, err := f.ReadAt(p, got, 0); err != nil {
					t.Fatalf("read with library %d down: %v", failDev, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("read with a library down returned corrupt data")
				}
				if failDev == 0 && hl.Svc.Stats().ReplicaRedirects == 0 {
					t.Fatal("primary library down but no fetch was redirected to a replica")
				}

				repaired, err := hl.RepairPass(p)
				if err != nil {
					t.Fatalf("repair pass: %v", err)
				}
				if repaired == 0 {
					t.Fatal("repair pass repaired nothing")
				}
				if defs := hl.ReplicationDeficits(); len(defs) != 0 {
					t.Fatalf("deficits after repair: %+v", defs)
				}
				if g := hl.Obs.Gauge("repair.under_replicated").Value(); g != 0 {
					t.Fatalf("under-replication gauge = %d after repair", g)
				}

				vs := auditVerdicts(hl)
				if vs[attr.VerdictPlaced] == 0 {
					t.Fatal("no placement verdict in the decision audit")
				}
				if vs[attr.VerdictRepaired] == 0 {
					t.Fatal("no repair verdict in the decision audit")
				}
				if failDev == 0 && vs[attr.VerdictRouted] == 0 {
					t.Fatal("no routing verdict in the decision audit")
				}

				// The repaired copies are real: with the failed library still
				// down, reads keep verifying after the cache is dropped again.
				for _, l := range hl.Cache.Lines() {
					if !l.Staging && l.Pins == 0 {
						if err := hl.Svc.Eject(l.Tag); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := f.ReadAt(p, got, 0); err != nil {
					t.Fatalf("read after repair: %v", err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("read after repair returned corrupt data")
				}
			})
			k.Stop()
		})
	}
}

// TestRepairBlocksCleanerOnSoleReplica pins the repair-vs-cleaner
// ordering: while a replica volume holds the only reachable copies (the
// primaries' library is down), both the volume selector and CleanVolume
// itself must refuse to collect it; once a repair pass has re-replicated
// the data elsewhere, the volume becomes collectible and reads survive
// its erasure.
func TestRepairBlocksCleanerOnSoleReplica(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl := twoLibraryRig(t, p, k)
		f, data := migrateTestFile(t, p, hl)

		// Primaries land on device 0, replicas on device 1 volume 0.
		hl.Libraries()[0].SetDown(true)

		if u, ok := hl.SelectCleanableVolume(); ok && u.Device == 1 && u.Volume == 0 {
			t.Fatal("selector picked the sole-surviving-replica volume")
		}
		found := false
		for _, d := range hl.Audit.All() {
			if d.Verdict == attr.VerdictSkipped && d.Reason == "sole surviving replica; repair pending" {
				found = true
			}
		}
		if !found {
			t.Fatal("selector did not audit the sole-replica skip")
		}
		if _, err := hl.CleanVolume(p, 1, 0); !errors.Is(err, ErrSoleSurvivingReplica) {
			t.Fatalf("CleanVolume on sole-replica volume: got %v, want ErrSoleSurvivingReplica", err)
		}

		// Repair re-replicates onto other volumes; the volume is then
		// collectible, and the data survives its erasure.
		if n, err := hl.RepairPass(p); err != nil || n == 0 {
			t.Fatalf("repair pass: n=%d err=%v", n, err)
		}
		if _, err := hl.CleanVolume(p, 1, 0); err != nil {
			t.Fatalf("CleanVolume after repair: %v", err)
		}
		for _, l := range hl.Cache.Lines() {
			if !l.Staging && l.Pins == 0 {
				if err := hl.Svc.Eject(l.Tag); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 0); err != nil {
			t.Fatalf("read after erasing repaired volume: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted after cleaning the old replica volume")
		}
	})
	k.Stop()
}

// libSoakSeed drives the library-outage chaos soak deterministically.
const libSoakSeed = 20260808

// runLibraryOutageSoak runs a randomized workload on a two-library,
// replication-factor-2 instance while library 0 is killed outright
// mid-run and revived later, with the repair daemon running throughout.
// Zero data loss is required — every file must verify byte-exact at
// every point — and the run must end fully re-replicated.
func runLibraryOutageSoak(t *testing.T) string {
	const segBlocks = 16
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, int64(160*segBlocks), bus)
	jb0 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 24, segBlocks*lfs.BlockSize, bus)
	jb1 := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 24, segBlocks*lfs.BlockSize, bus)
	cfg := Config{
		SegBlocks:   segBlocks,
		Disks:       []dev.BlockDev{disk},
		Jukeboxes:   []jukebox.Footprint{jb0, jb1},
		CacheSegs:   20,
		MaxInodes:   512,
		BufferBytes: 1 << 20,
		Replicas:    2,
	}

	model := map[string][]byte{}
	var names []string
	rng := sim.NewRNG(libSoakSeed)
	var digest string

	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		hl.StartRepairDaemon(10 * sim.Time(time.Second))
		hl.FS.AttachCleaner(6, 10)

		// Kill the whole first library mid-workload; revive it later.
		plan := fault.NewPlan(fault.Config{Seed: libSoakSeed})
		plan.AddLibraryOutage(hl.Libraries()[0], fault.LibraryOutage{
			Start: 30 * sim.Time(time.Second),
			End:   150 * sim.Time(time.Second),
		})
		plan.Start(k)

		verify := func(name string) {
			f, err := hl.FS.Open(p, name)
			if err != nil {
				t.Fatalf("open %s: %v", name, err)
			}
			want := model[name]
			got := make([]byte, len(want))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatalf("read %s: %v (a replicated tier must lose nothing on a single library outage)", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s corrupted", name)
			}
		}

		for op := 0; op < 250; op++ {
			p.Sleep(time.Duration(rng.Intn(1000)) * time.Millisecond)
			switch r := rng.Intn(100); {
			case r < 30 || len(names) == 0: // create
				if len(names) >= 25 {
					continue
				}
				name := "/c" + itoa(op)
				data := make([]byte, rng.Intn(8*lfs.BlockSize)+1)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				f, err := hl.FS.Create(p, name)
				if err != nil {
					t.Fatalf("op %d create: %v", op, err)
				}
				if _, err := f.WriteAt(p, data, 0); err != nil {
					t.Fatalf("op %d write: %v", op, err)
				}
				model[name] = data
				names = append(names, name)
			case r < 45: // overwrite a slice
				name := names[rng.Intn(len(names))]
				cur := model[name]
				off := rng.Intn(len(cur))
				patch := make([]byte, rng.Intn(2*lfs.BlockSize)+1)
				for i := range patch {
					patch[i] = byte(rng.Intn(256))
				}
				f, err := hl.FS.Open(p, name)
				if err == nil {
					_, err = f.WriteAt(p, patch, int64(off))
				}
				if err != nil {
					t.Fatalf("op %d overwrite: %v", op, err)
				}
				if off+len(patch) > len(cur) {
					grown := make([]byte, off+len(patch))
					copy(grown, cur)
					cur = grown
				}
				copy(cur[off:], patch)
				model[name] = cur
			case r < 70: // migrate a random file
				name := names[rng.Intn(len(names))]
				f, err := hl.FS.Open(p, name)
				if err == nil {
					_, err = hl.MigrateFiles(p, []uint32{f.Inum()}, rng.Intn(2) == 0)
				}
				if err != nil && !errors.Is(err, ErrNoTertiarySpace) {
					t.Fatalf("op %d migrate %s: %v", op, name, err)
				}
				if err := hl.CompleteMigration(p); err != nil && !errors.Is(err, ErrNoTertiarySpace) {
					t.Fatalf("op %d complete: %v", op, err)
				}
			case r < 78: // eject cache lines
				for _, l := range hl.Cache.Lines() {
					if l.Staging || l.Pins > 0 {
						continue
					}
					if rng.Intn(2) == 0 {
						if err := hl.Svc.Eject(l.Tag); err != nil {
							t.Fatal(err)
						}
					}
				}
			case r < 92: // verify a random file
				verify(names[rng.Intn(len(names))])
			default: // disk cleaning
				segs := hl.FS.SelectCleanable(2)
				if len(segs) > 0 {
					if _, err := hl.FS.CleanSegments(p, segs); err != nil {
						t.Fatalf("op %d clean: %v", op, err)
					}
				}
			}
		}

		// Run past the revival edge, settle, and repair whatever is left.
		if end := 155 * sim.Time(time.Second); p.Now() < end {
			p.Sleep(end - p.Now())
		}
		if hl.Libraries()[0].Down() {
			t.Fatal("library 0 was not revived by the fault plan")
		}
		if err := hl.CompleteMigration(p); err != nil && !errors.Is(err, ErrNoTertiarySpace) {
			t.Fatalf("final complete: %v", err)
		}
		if _, err := hl.RepairPass(p); err != nil {
			t.Fatalf("final repair: %v", err)
		}
		if defs := hl.ReplicationDeficits(); len(defs) != 0 {
			t.Fatalf("still under-replicated after revival + repair: %+v", defs)
		}
		if g := hl.Obs.Gauge("repair.under_replicated").Value(); g != 0 {
			t.Fatalf("under-replication gauge = %d at end", g)
		}
		repairedSegs := hl.Obs.Counter("repair.segments_repaired").Value()
		if repairedSegs == 0 {
			t.Fatal("outage window triggered no repairs (daemon never re-replicated)")
		}
		for _, name := range names {
			verify(name)
		}
		if err := hl.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}

		h := sha256.New()
		for _, name := range names {
			fmt.Fprintf(h, "%s:%x\n", name, sha256.Sum256(model[name]))
		}
		fmt.Fprintf(h, "svc:%+v\n", hl.Svc.Stats())
		fmt.Fprintf(h, "repaired:%d bytes:%d audit:%d\n",
			repairedSegs, hl.Obs.Counter("repair.bytes_repaired").Value(), hl.Audit.Total())
		fmt.Fprintf(h, "now:%d\n", int64(p.Now()))
		digest = fmt.Sprintf("%x files=%d repaired=%d redirects=%d",
			h.Sum(nil), len(names), repairedSegs, hl.Svc.Stats().ReplicaRedirects)
	})
	k.Stop()
	return digest
}

// TestChaosLibraryOutageSoak kills and revives an entire library
// mid-workload: no data loss, eventual re-replication, and the whole run
// bit-identical when repeated with the same seed.
func TestChaosLibraryOutageSoak(t *testing.T) {
	d1 := runLibraryOutageSoak(t)
	d2 := runLibraryOutageSoak(t)
	if d1 != d2 {
		t.Fatalf("library-outage soak is not deterministic:\n  run 1: %s\n  run 2: %s", d1, d2)
	}
}
