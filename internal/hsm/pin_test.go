package hsm_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fsck"
	"repro/internal/hsm"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
)

// TestPinnedNeverMoves is the end-to-end pin-guard test: with a file
// pinned, the evictor, whole-volume cleaner, and migrator all run to
// exhaustion, and none of them touches the pinned data. The pinned
// segments stay cached, stay on their medium, and the content reads back
// intact afterwards.
func TestPinnedNeverMoves(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, _, _ := rig(t, p, k)
		want := migrateAndEject(t, p, hl, "/pinned", 16)
		churn := []string{}
		for i := 0; i < 10; i++ {
			path := "/churn" + string(rune('a'+i))
			migrateAndEject(t, p, hl, path, 8)
			churn = append(churn, path)
		}
		s := attach(t, p, hl)
		if _, err := s.Submit(p, hsm.OpPin, "/pinned", "alice"); err != nil {
			t.Fatal(err)
		}
		pin := s.Pins()[0]
		if len(pin.Segs) == 0 {
			t.Fatal("pin recorded no segments")
		}

		// Evictor to exhaustion: stage ten other files through an 8-line
		// cache, three times over. Victim selection must route around the
		// pinned line every time.
		for round := 0; round < 3; round++ {
			for _, path := range churn {
				if _, err := s.Submit(p, hsm.OpStageIn, path, "bob"); err != nil {
					t.Fatalf("churn stage-in %s: %v", path, err)
				}
			}
		}
		for _, tag := range pin.Segs {
			if _, ok := hl.Cache.Peek(tag); !ok {
				t.Fatalf("pinned segment %d evicted under cache pressure", tag)
			}
			if err := hl.Svc.Eject(tag); !errors.Is(err, cache.ErrEvictLocked) {
				t.Fatalf("direct eject of pinned segment %d: %v", tag, err)
			}
		}

		// Cleaner to exhaustion: the pinned volume is refused outright, and
		// volume selection never offers it.
		seg := hl.Amap.SegForIndex(pin.Segs[0])
		pdev, pvol, _, ok := hl.Amap.Loc(seg)
		if !ok {
			t.Fatalf("no location for pinned segment %d", pin.Segs[0])
		}
		if _, err := hl.CleanVolume(p, pdev, pvol); !errors.Is(err, core.ErrVolumePinned) {
			t.Fatalf("cleaning the pinned volume: %v", err)
		}
		for i := 0; i < 16; i++ {
			u, ok := hl.SelectCleanableVolume()
			if !ok {
				break
			}
			if u.Device == pdev && u.Volume == pvol {
				t.Fatalf("cleaner selected the pinned volume %d/%d", pdev, pvol)
			}
			if _, err := hl.CleanVolume(p, u.Device, u.Volume); err != nil {
				t.Fatalf("cleaning volume %d/%d: %v", u.Device, u.Volume, err)
			}
		}
		if v := auditVerdicts(hl); v["pin-guard"] == 0 {
			t.Fatalf("no pin-guard audit verdicts: %v", v)
		}

		// Migrator to exhaustion: a pinned disk-resident file stays on
		// disk while its unpinned twin migrates.
		writeDisk := func(path string) uint32 {
			f, err := hl.FS.Create(p, path)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 8*lfs.BlockSize)
			if _, err := f.WriteAt(p, data, 0); err != nil {
				t.Fatal(err)
			}
			return f.Inum()
		}
		pinnedInum := writeDisk("/diskpinned")
		unpinnedInum := writeDisk("/diskplain")
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(p, hsm.OpPin, "/diskpinned", "alice"); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Time(60 * time.Second)) // age past any policy min-age
		m := migrate.NewMigrator(hl)
		if _, err := m.RunOnce(p, 1<<40); err != nil {
			t.Fatal(err)
		}
		tertBlocks := func(inum uint32) int {
			refs, err := hl.FS.FileBlockRefs(p, inum)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, ref := range refs {
				if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(ref.Addr)) {
					n++
				}
			}
			return n
		}
		if n := tertBlocks(pinnedInum); n != 0 {
			t.Fatalf("migrator moved %d blocks of the pinned file", n)
		}
		if n := tertBlocks(unpinnedInum); n == 0 {
			t.Fatal("migrator skipped the unpinned control file")
		}

		// After all three subsystems ran dry, the pinned data is intact.
		for _, tag := range pin.Segs {
			if !hl.SegmentPinned(tag) || !hl.FS.TsegPinned(tag) {
				t.Fatalf("segment %d lost its pin", tag)
			}
		}
		f, err := hl.FS.Open(p, "/pinned")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(want))
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatal("pinned file content changed")
		}
		rep, err := fsck.Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck after pin-guard exhaustion: %+v", rep.Problems)
		}
		wantPinned := 0
		for _, pn := range s.Pins() {
			wantPinned += len(pn.Segs)
		}
		if rep.TsegsPinned != wantPinned {
			t.Fatalf("fsck counted %d pinned tsegs, pins hold %d", rep.TsegsPinned, wantPinned)
		}
	})
}

// TestPinSurvivesPowerCut cuts power right after a pin completes (media
// snapshot at the cut instant, fresh kernel, remount with roll-forward)
// and checks the pin is still honored: the persisted tseg flag guards the
// segment before the HSM service reattaches, and Attach re-derives the
// full pin set from the recovered state file.
func TestPinSurvivesPowerCut(t *testing.T) {
	var (
		diskImg, jukeImg bytes.Buffer
		cut              sim.Time
		pinSegs          []int
		wantData         []byte
	)
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl, disk, jb := rig(t, p, k)
		wantData = migrateAndEject(t, p, hl, "/keep", 8)
		migrateAndEject(t, p, hl, "/plain", 8)
		s := attach(t, p, hl)
		if err := s.SetQuota(p, "alice", hsm.Quota{PinnedHard: 64 * lfs.BlockSize}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(p, hsm.OpPin, "/keep", "alice"); err != nil {
			t.Fatal(err)
		}
		pinSegs = s.Pins()[0].Segs
		// Submit checkpointed the pin; dirty un-synced work after this
		// point is what the power cut destroys.
		f, err := hl.FS.Create(p, "/lost")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 2*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(disk.SaveStore(&diskImg), jb.SaveStore(&jukeImg)); err != nil {
			t.Fatal(err)
		}
		cut = p.Now()
	})

	k2 := sim.NewKernel()
	k2.AdvanceTo(cut)
	k2.RunProc(func(p *sim.Proc) {
		disk2 := dev.NewDisk(k2, dev.RZ57, 256*64, nil)
		jb2 := jukebox.MustNew(k2, jukebox.MO6300, 2, 4, 32, 64*lfs.BlockSize, nil)
		if err := errors.Join(disk2.LoadStore(&diskImg), jb2.LoadStore(&jukeImg)); err != nil {
			t.Fatal(err)
		}
		hl, err := core.New(p, core.Config{
			SegBlocks:   64,
			Disks:       []dev.BlockDev{disk2},
			Jukeboxes:   []jukebox.Footprint{jb2},
			CacheSegs:   8,
			MaxInodes:   256,
			BufferBytes: 64 * lfs.BlockSize,
		}, false)
		if err != nil {
			t.Fatalf("remount after power cut: %v", err)
		}

		// Before the HSM service reattaches, the checkpointed tseg flag
		// alone keeps the guards active.
		for _, tag := range pinSegs {
			if !hl.FS.TsegPinned(tag) {
				t.Fatalf("tseg pin flag on %d lost across the power cut", tag)
			}
			if !hl.SegmentPinned(tag) {
				t.Fatalf("segment %d not guarded before HSM attach", tag)
			}
		}

		s := attach(t, p, hl)
		pins := s.Pins()
		if len(pins) != 1 || pins[0].Path != "/keep" || pins[0].Principal != "alice" {
			t.Fatalf("pins after recovery: %+v", pins)
		}
		if q := s.QuotaOf("alice"); q.PinnedHard != 64*lfs.BlockSize {
			t.Fatalf("quota after recovery: %+v", q)
		}
		if !hl.InodePinned(pins[0].Inum) {
			t.Fatal("inode pin not re-derived after recovery")
		}
		// The request ledger recovered too: every persisted request is in
		// a terminal state (the pin completed before the cut).
		for _, r := range s.Requests() {
			if r.State != hsm.Done && r.State != hsm.Failed {
				t.Fatalf("recovered request not terminal: %+v", r)
			}
		}

		// And the pinned file still reads back through a fresh cache.
		f, err := hl.FS.Open(p, "/keep")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(wantData))
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, wantData) {
			t.Fatal("pinned file content changed across the power cut")
		}
		if _, err := s.Submit(p, hsm.OpUnpin, "/keep", "alice"); err != nil {
			t.Fatalf("unpin after recovery: %v", err)
		}
		if got := pinnedSegments(hl); len(got) != 0 {
			t.Fatalf("pins remain after unpin: %v", got)
		}
	})
}
