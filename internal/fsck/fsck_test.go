package fsck

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/wl"
)

func newHL(t *testing.T) (*sim.Kernel, *core.HighLight) {
	t.Helper()
	k, hl, _ := newHLJuke(t)
	return k, hl
}

func newHLJuke(t *testing.T) (*sim.Kernel, *core.HighLight, *jukebox.Jukebox) {
	t.Helper()
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 128*16, nil)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 16, 16*lfs.BlockSize, nil)
	var hl *core.HighLight
	k.RunProc(func(p *sim.Proc) {
		var err error
		hl, err = core.New(p, core.Config{
			SegBlocks: 16,
			Disks:     []dev.BlockDev{disk},
			Jukeboxes: []jukebox.Footprint{juke},
			CacheSegs: 12,
			MaxInodes: 256,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	return k, hl, juke
}

// superblockReads counts the reads of a disk that start at block 0, the
// superblock.
type superblockReads struct {
	*dev.Disk
	n int
}

func (d *superblockReads) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	if blk == 0 {
		d.n++
	}
	return d.Disk.ReadBlocks(p, blk, buf)
}

// TestLargeObjectAtPaperScaleIsClean writes the §7.1 object at the paper's
// scale (12,500 frames, 51.2 MB, on the 848 MB RZ57), which grows
// double-indirect children. A child's slot in the zeroed root block once read
// as block 0: creating the child read the superblock as its pointers, and
// writing each data block the child maps then released the block that
// superblock field named, under-counting segments 1 (SegBlocks 256), 3
// (DiskSegs 848) and 16 (MaxInodes 4096). Writing the object must read
// nothing at block 0, and fsck must find nothing.
func TestLargeObjectAtPaperScaleIsClean(t *testing.T) {
	k := sim.NewKernel()
	disk := &superblockReads{Disk: dev.NewDisk(k, dev.RZ57, 848*256, nil)}
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 32, 40, 256*lfs.BlockSize, nil)
	k.RunProc(func(p *sim.Proc) {
		hl, err := core.New(p, core.Config{
			SegBlocks:   256,
			Disks:       []dev.BlockDev{disk},
			Jukeboxes:   []jukebox.Footprint{juke},
			CacheSegs:   96,
			MaxInodes:   4096,
			BufferBytes: 3200 * 1024,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		before := disk.n
		if _, err := wl.CreateLargeObject(p, wl.HLTarget("hl", hl), wl.LargeObjectSpec{Path: "/obj", Frames: 12500}); err != nil {
			t.Fatal(err)
		}
		if n := disk.n - before; n != 0 {
			t.Errorf("writing the object read block 0 %d times", n)
		}
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("fsck after the paper-scale large object:\n%s", b.String())
		}
	})
	k.Stop()
}

func TestCleanFileSystemPasses(t *testing.T) {
	k, hl := newHL(t)
	k.RunProc(func(p *sim.Proc) {
		if err := hl.FS.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			f, err := hl.FS.Create(p, "/d/f"+string(rune('0'+i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(p, make([]byte, (i+1)*3*lfs.BlockSize), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("clean FS reported problems:\n%s", b.String())
		}
		if rep.Files != 5 || rep.Dirs != 2 {
			t.Fatalf("counted %d files / %d dirs, want 5 / 2", rep.Files, rep.Dirs)
		}
		if rep.DiskBlocks == 0 || rep.SegsParsed == 0 {
			t.Fatalf("check did not traverse media: %+v", rep)
		}
	})
	k.Stop()
}

func TestMigratedFileSystemPasses(t *testing.T) {
	k, hl := newHL(t)
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/archive")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 30*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, true); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("migrated FS reported problems:\n%s", b.String())
		}
		if rep.TertBlocks == 0 {
			t.Fatal("check saw no tertiary blocks despite migration")
		}
	})
	k.Stop()
}

func TestDetectsUndercountedSegmentUsage(t *testing.T) {
	k, hl := newHL(t)
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 8*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Sabotage: zero the live-byte count of the tertiary segment
		// that holds the file.
		refs, _ := hl.FS.FileBlockRefs(p, f.Inum())
		idx, _ := hl.Amap.TertIndex(hl.Amap.SegOf(refs[0].Addr))
		hl.FS.ResetTseg(idx)
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatal("fsck missed sabotaged tertiary accounting")
		}
		found := false
		for _, pr := range rep.Problems {
			if strings.Contains(pr.What, "reachable bytes") || strings.Contains(pr.What, "not marked written") {
				found = true
			}
		}
		if !found {
			t.Fatalf("unexpected problem set: %v", rep.Problems)
		}
	})
	k.Stop()
}

// TestDetectsTornTertiarySegment corrupts a migrated segment on the
// medium — the state a power cut mid copy-out leaves behind — and checks
// the pass-5 scrub catches it by checksum even though an intact cache
// line still covers the reads. The damage is then routed through the
// retirement/restage path: the live blocks restage from the cached copy
// onto a fresh segment, the torn one is retired, and a re-check is clean.
func TestDetectsTornTertiarySegment(t *testing.T) {
	k, hl, juke := newHLJuke(t)
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/archive")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, bytes.Repeat([]byte{0xA5}, 20*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		refs, err := hl.FS.FileBlockRefs(p, f.Inum())
		if err != nil {
			t.Fatal(err)
		}
		seg := hl.Amap.SegOf(refs[0].Addr)
		idx, _ := hl.Amap.TertIndex(seg)
		if _, ok := hl.Cache.Peek(idx); !ok {
			t.Fatal("migrated segment not cached (test premise)")
		}
		// Tear the segment on the medium: wreck its second half, the way
		// a power cut halfway through WriteSegment does.
		_, vol, vseg, ok := hl.Amap.Loc(seg)
		if !ok {
			t.Fatalf("segment %d has no media location", seg)
		}
		img := make([]byte, juke.SegmentBytes())
		if err := juke.ReadSegment(p, vol, vseg, img); err != nil {
			t.Fatal(err)
		}
		for i := len(img) / 2; i < len(img); i++ {
			img[i] ^= 0xFF
		}
		if err := juke.WriteSegment(p, vol, vseg, img); err != nil {
			t.Fatal(err)
		}

		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, pr := range rep.Problems {
			// The summary of the wrecked partial segment still decodes, so
			// the scrub can say where the image tears.
			if strings.Contains(pr.What, "checksum-valid") && strings.Contains(pr.What, "torn partial segment at offset") {
				found = true
			}
		}
		if !found {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("scrub missed the torn tertiary segment:\n%s", b.String())
		}

		// Retirement/restage: move the live blocks off the suspect
		// segment (the intact cache line feeds the restage), make the
		// move durable, then retire the torn segment so the allocator
		// never reuses it.
		if _, err := hl.RestageTertSegment(p, idx); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if l, ok := hl.Cache.Peek(idx); ok && !l.Staging && l.Pins == 0 {
			dseg, err := hl.Cache.Evict(l)
			if err != nil {
				t.Fatal(err)
			}
			hl.FS.SetCacheBinding(dseg, lfs.NilCacheTag, false)
			hl.Cache.Release(dseg)
		}
		hl.FS.ResetTseg(idx)
		hl.FS.MarkTsegNoStore(idx)

		rep, err = Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("restage + retirement did not heal the FS:\n%s", b.String())
		}
	})
	k.Stop()
}

// TestDetectsCacheDirectoryDisagreement sabotages the cache binding of a
// fetched line in both directions and checks pass 3 reports each.
func TestDetectsCacheDirectoryDisagreement(t *testing.T) {
	k, hl := newHL(t)
	k.RunProc(func(p *sim.Proc) {
		f, err := hl.FS.Create(p, "/archive")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, make([]byte, 12*lfs.BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		lines := hl.Cache.Lines()
		if len(lines) == 0 {
			t.Fatal("no cache lines after migration")
		}
		l := lines[0]
		// Sabotage: the usage table now claims the disk segment caches a
		// different tertiary segment than the directory does.
		hl.FS.SetCacheBinding(l.DiskSeg, uint32(l.Tag+1), false)
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		var dirSide, tableSide bool
		for _, pr := range rep.Problems {
			if strings.Contains(pr.What, "in the usage table") {
				dirSide = true
			}
			if strings.Contains(pr.What, "directory says") {
				tableSide = true
			}
		}
		if !dirSide || !tableSide {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("pass 3 missed the binding disagreement (dir=%v table=%v):\n%s", dirSide, tableSide, b.String())
		}
		// Heal and re-check.
		hl.FS.SetCacheBinding(l.DiskSeg, uint32(l.Tag), false)
		rep, err = Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			var b bytes.Buffer
			rep.Write(&b)
			t.Fatalf("healed FS still reports problems:\n%s", b.String())
		}
	})
	k.Stop()
}

func TestSummaryRendering(t *testing.T) {
	k, hl := newHL(t)
	k.RunProc(func(p *sim.Proc) {
		rep, err := Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.Summary(), "0 problems") {
			t.Fatalf("summary: %s", rep.Summary())
		}
	})
	k.Stop()
}
