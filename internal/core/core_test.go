package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// hlEnv is a small HighLight instance: 64 KB segments (16 blocks) for fast
// tests, one RZ57, one 2-drive MO jukebox.
type hlEnv struct {
	k    *sim.Kernel
	bus  *dev.Bus
	disk *dev.Disk
	juke *jukebox.Jukebox
	hl   *HighLight
}

func newHL(t *testing.T, diskSegs, cacheSegs, vols, segsPerVol int) *hlEnv {
	t.Helper()
	const segBlocks = 16
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, int64(diskSegs*segBlocks), bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, vols, segsPerVol, segBlocks*lfs.BlockSize, bus)
	env := &hlEnv{k: k, bus: bus, disk: disk, juke: juke}
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, Config{
			SegBlocks:   segBlocks,
			Disks:       []dev.BlockDev{disk},
			Jukeboxes:   []jukebox.Footprint{juke},
			CacheSegs:   cacheSegs,
			MaxInodes:   256,
			BufferBytes: 1 << 20,
		}, true)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		env.hl = hl
	})
	return env
}

func (e *hlEnv) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e.k.RunProc(fn)
}

func put(t *testing.T, p *sim.Proc, hl *HighLight, path string, data []byte) *lfs.File {
	t.Helper()
	f, err := hl.FS.Create(p, path)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	return f
}

func get(t *testing.T, p *sim.Proc, f *lfs.File) []byte {
	t.Helper()
	sz, err := f.Size(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sz)
	if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

func pat(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(tag)*37+i) ^ byte(i>>9)
	}
	return b
}

func TestMigrateAndReadBackThroughCache(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(1, 40*lfs.BlockSize) // spans multiple staging segments
		f := put(t, p, hl, "/sat-image", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatalf("migrate: %v", err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatalf("complete: %v", err)
		}
		if hl.Svc.Stats().Copyouts == 0 {
			t.Fatal("no copyouts performed")
		}
		// Read while cached: data must be intact.
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("cached read differs")
		}
	})
	e.k.Stop()
}

func TestDemandFetchAfterEviction(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(2, 30*lfs.BlockSize)
		f := put(t, p, hl, "/archive", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Eject every cached line and drop FS buffers: the next read
		// must demand-fetch from the jukebox.
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatalf("eject %d: %v", l.Tag, err)
			}
		}
		if hl.Cache.Len() != 0 {
			t.Fatal("cache not empty after ejection")
		}
		fetchesBefore := hl.Svc.Stats().Fetches
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("demand-fetched read differs")
		}
		if hl.Svc.Stats().Fetches <= fetchesBefore {
			t.Fatal("read did not demand-fetch")
		}
	})
	e.k.Stop()
}

func TestMigrateInodesAndIndirectBlocks(t *testing.T) {
	e := newHL(t, 96, 10, 4, 24)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		// 40 blocks: direct + single indirect.
		data := pat(3, 40*lfs.BlockSize)
		f := put(t, p, hl, "/deep", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, true); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// The inode map must now point at a tertiary address.
		e := hl.FS.Imap(f.Inum())
		if !hl.Amap.IsTertiarySeg(hl.Amap.SegOf(e.Addr)) {
			t.Fatalf("inode at %d still on disk after inode migration", e.Addr)
		}
		// Cold read: drop buffers and inode cache, eject cache lines.
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		got := get(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted after inode+indirect migration")
		}
	})
	e.k.Stop()
}

func TestPartialFileMigration(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(4, 10*lfs.BlockSize)
		f := put(t, p, hl, "/db", data)
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		refs, err := hl.FS.FileBlockRefs(p, f.Inum())
		if err != nil {
			t.Fatal(err)
		}
		// Migrate only blocks 0..4 (block-based migration, §5.2).
		var cold []lfs.BlockRef
		for _, r := range refs {
			if r.Lbn >= 0 && r.Lbn < 5 {
				cold = append(cold, r)
			}
		}
		if _, err := hl.MigrateRefs(p, cold); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Blocks 5.. must still be disk-resident; blocks 0..4 tertiary.
		refs2, _ := hl.FS.FileBlockRefs(p, f.Inum())
		for _, r := range refs2 {
			if r.Lbn < 0 {
				continue
			}
			tert := hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr))
			if r.Lbn < 5 && !tert {
				t.Fatalf("block %d not migrated", r.Lbn)
			}
			if r.Lbn >= 5 && tert {
				t.Fatalf("block %d migrated unexpectedly", r.Lbn)
			}
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("mixed-residency file corrupted")
		}
	})
	e.k.Stop()
}

func TestUpdateOfCachedSegmentGoesToLog(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(5, 8*lfs.BlockSize)
		f := put(t, p, hl, "/mut", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Overwrite one block: the change appends to the disk log; the
		// cached/tertiary copy remains undisturbed (§4).
		repl := pat(6, lfs.BlockSize)
		if _, err := f.WriteAt(p, repl, 3*lfs.BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		refs, _ := hl.FS.FileBlockRefs(p, f.Inum())
		for _, r := range refs {
			if r.Lbn == 3 {
				if hl.Amap.IsTertiarySeg(hl.Amap.SegOf(r.Addr)) {
					t.Fatal("updated block still points at tertiary copy")
				}
			}
		}
		want := append([]byte{}, data...)
		copy(want[3*lfs.BlockSize:], repl)
		hl.FS.DropFileBuffers(p, f.Inum())
		if got := get(t, p, f); !bytes.Equal(got, want) {
			t.Fatal("update lost or misplaced")
		}
	})
	e.k.Stop()
}

func TestEndOfMediumRestagesOnNextVolume(t *testing.T) {
	e := newHL(t, 64, 8, 3, 8)
	e.juke.SetActualSegments(0, 2) // volume 0 takes only 2 segments
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(7, 50*lfs.BlockSize) // needs ~4 staging segments
		f := put(t, p, hl, "/big", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if u := hl.VolumeUsages()[0]; u.Volume != 0 || u.NoStoreSegs == 0 {
			t.Fatalf("volume 0 after end of medium: %+v, want its unwritten segments no-store", u)
		}
		if hl.Svc.Stats().EOMRetries == 0 {
			t.Fatal("no end-of-medium retry recorded")
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if l.Staging {
				t.Fatalf("staging line %d survived CompleteMigration", l.Tag)
			}
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("data lost across end-of-medium re-staging")
		}
	})
	e.k.Stop()
}

func TestPermanentWriteErrorRetiresAndRestages(t *testing.T) {
	e := newHL(t, 64, 8, 3, 8)
	// The first tertiary segment (vol 0, seg 0) is permanently bad for
	// writes: the first copyout fails, the segment must be retired, and
	// the staged bytes must land on a fresh segment instead.
	e.juke.Fault = func(op string, vol, seg int) error {
		if op == "write" && vol == 0 && seg == 0 {
			return dev.ErrPermanentMedia
		}
		return nil
	}
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(9, 12*lfs.BlockSize) // fits one staging segment
		f := put(t, p, hl, "/fragile", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if hl.RetiredSegments() != 1 {
			t.Fatalf("RetiredSegments = %d, want 1", hl.RetiredSegments())
		}
		if hl.FS.TsegUsage(0).Flags&lfs.SegNoStore == 0 {
			t.Fatal("bad segment 0 not marked no-store")
		}
		if hl.Svc.Stats().CopyoutFaults == 0 {
			t.Fatal("permanent write error not counted")
		}
		// The restage must be complete: no staging lines left, and the
		// data must survive a full eviction + demand fetch round trip.
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if l.Staging {
				t.Fatalf("staging line %d survived CompleteMigration", l.Tag)
			}
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("data lost across permanent-write restage")
		}
		// The retired segment must never be picked for staging again.
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if hl.RetiredSegments() != 1 {
			t.Fatalf("retired count moved to %d: allocator reused a retired segment", hl.RetiredSegments())
		}
	})
	e.k.Stop()
}

func TestDelayedCopyouts(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		hl.DelayCopyouts = true
		data := pat(8, 40*lfs.BlockSize)
		f := put(t, p, hl, "/batch", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if hl.Svc.Stats().Copyouts != 0 {
			t.Fatal("copyouts ran despite DelayCopyouts")
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if hl.Svc.Stats().Copyouts == 0 {
			t.Fatal("delayed copyouts never flushed")
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("data corrupted")
		}
	})
	e.k.Stop()
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	// Cache smaller than the working set: demand fetches must evict.
	e := newHL(t, 64, 4, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		var files []*lfs.File
		var datas [][]byte
		var inums []uint32
		for i := 0; i < 6; i++ {
			d := pat(byte(10+i), 12*lfs.BlockSize)
			f := put(t, p, hl, "/f"+string(rune('a'+i)), d)
			files = append(files, f)
			datas = append(datas, d)
			inums = append(inums, f.Inum())
		}
		if _, err := hl.MigrateFiles(p, inums, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Touch every file: more tertiary segments than cache lines.
		for round := 0; round < 2; round++ {
			for i, f := range files {
				hl.FS.DropFileBuffers(p, f.Inum())
				if got := get(t, p, f); !bytes.Equal(got, datas[i]) {
					t.Fatalf("file %d corrupted under cache pressure", i)
				}
			}
		}
		if hl.Cache.Stats().Evicts == 0 {
			t.Fatal("no evictions despite cache pressure")
		}
	})
	e.k.Stop()
}

func TestRemountRebuildsCacheDirectory(t *testing.T) {
	const segBlocks = 16
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	disk := dev.NewDisk(k, dev.RZ57, int64(64*segBlocks), bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 16, segBlocks*lfs.BlockSize, bus)
	cfg := Config{
		SegBlocks:   segBlocks,
		Disks:       []dev.BlockDev{disk},
		Jukeboxes:   []jukebox.Footprint{juke},
		CacheSegs:   8,
		MaxInodes:   256,
		BufferBytes: 1 << 20,
	}
	data := pat(9, 20*lfs.BlockSize)
	var inum uint32
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		f := put(t, p, hl, "/persist", data)
		inum = f.Inum()
		if _, err := hl.MigrateFiles(p, []uint32{inum}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
	})
	// "Crash" and remount over the same media.
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, cfg, false)
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
		if hl.Cache.Len() == 0 {
			t.Fatal("cache directory not rebuilt from segment usage table")
		}
		f, err := hl.FS.OpenInum(p, inum)
		if err != nil {
			t.Fatal(err)
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("migrated data lost across remount")
		}
	})
	k.Stop()
}

func TestTertiaryExhaustion(t *testing.T) {
	e := newHL(t, 64, 8, 1, 2) // tiny tertiary: 2 segments total
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := put(t, p, hl, "/x", pat(1, 60*lfs.BlockSize))
		_, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false)
		if !errors.Is(err, ErrNoTertiarySpace) {
			t.Fatalf("want ErrNoTertiarySpace, got %v", err)
		}
	})
	e.k.Stop()
}

func TestWriteToTertiaryAddressRejected(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		bm := &blockMap{hl: e.hl}
		tert := e.hl.Amap.SegForIndex(0)
		err := bm.WriteBlocks(p, e.hl.Amap.BlockOf(tert, 0), make([]byte, lfs.BlockSize))
		if err == nil {
			t.Fatal("direct write to tertiary address accepted")
		}
	})
	e.k.Stop()
}

func TestPrefetchHook(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(11, 45*lfs.BlockSize) // several tertiary segments
		f := put(t, p, hl, "/seq", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		// Prefetch the next segment whenever one is fetched.
		hl.Svc.Prefetch = func(tag int) []int {
			if tag+1 < hl.FS.TsegCount() && hl.FS.TsegUsage(tag+1).Flags&lfs.SegDirty != 0 {
				return []int{tag + 1}
			}
			return nil
		}
		buf := make([]byte, lfs.BlockSize)
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		p.Sleep(60e9) // let prefetches complete
		if hl.Cache.Len() < 2 {
			t.Fatalf("prefetch did not populate cache: %d lines", hl.Cache.Len())
		}
	})
	e.k.Stop()
}

func TestAddressMapDescribe(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	s := e.hl.Amap.Describe()
	if s == "" {
		t.Fatal("empty address map description")
	}
	var _ = addr.NilBlock // keep import
	_ = cache.LRU
}

func TestReplicatedSegmentsReadClosestCopy(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		hl.Replicas = 2
		data := pat(21, 14*lfs.BlockSize) // one staging segment
		f := put(t, p, hl, "/dual", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		// Find the primary and its replica; they must sit on different
		// volumes, and the replica must not be counted as live data.
		refs, _ := hl.FS.FileBlockRefs(p, f.Inum())
		primary, _ := hl.Amap.TertIndex(hl.Amap.SegOf(refs[0].Addr))
		alts := hl.Svc.AltCopies(primary)
		if len(alts) != 1 {
			t.Fatalf("got %d replicas, want 1", len(alts))
		}
		_, pv, _, _ := hl.Amap.Loc(hl.Amap.SegForIndex(primary))
		_, rv, _, _ := hl.Amap.Loc(hl.Amap.SegForIndex(alts[0]))
		if pv == rv {
			t.Fatalf("replica on same volume %d as primary", pv)
		}
		if su := hl.FS.TsegUsage(alts[0]); su.LiveBytes != 0 || su.Flags&lfs.SegNoStore == 0 {
			t.Fatalf("replica counted as live data: %+v", su)
		}
		// Force the jukebox drives onto the REPLICA's volume, eject the
		// cache, and read: the fetch must use the loaded replica volume
		// (no media swap).
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, hl.Amap.SegBlocks()*lfs.BlockSize)
		_, v, s, _ := hl.Amap.Loc(hl.Amap.SegForIndex(alts[0]))
		// Load the replica volume into both drives by reading from it.
		if err := e.juke.ReadSegment(p, v, s, buf); err != nil {
			t.Fatal(err)
		}
		if !e.juke.VolumeLoaded(v) {
			t.Fatalf("replica volume %d not loaded after a read from it", v)
		}
		swapsBefore := e.juke.Stats().Swaps
		rbuf := make([]byte, lfs.BlockSize)
		if _, err := f.ReadAt(p, rbuf, 0); err != nil {
			t.Fatal(err)
		}
		if got := e.juke.Stats().Swaps; got != swapsBefore {
			t.Fatalf("fetch swapped media (%d -> %d) despite a loaded replica", swapsBefore, got)
		}
		// Full content still correct when read via the replica.
		got := get(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("replica content differs from primary")
		}
	})
	e.k.Stop()
}

func TestReplicaEOMDoesNotFailMigration(t *testing.T) {
	e := newHL(t, 64, 8, 3, 8)
	e.juke.SetActualSegments(2, 0) // the replica volume is full from the start
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		hl.Replicas = 2
		data := pat(22, 10*lfs.BlockSize)
		f := put(t, p, hl, "/x", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatalf("replica EOM must not fail migration: %v", err)
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("data lost")
		}
	})
	e.k.Stop()
}

// TestMetadataSelfContainedOnVolume checks the §8.2 guidance: migrated
// metadata (indirect blocks, inodes) should land on the same volume as the
// data they describe, so a media failure never strands pointers across
// volumes. The staging mechanism achieves this by streaming a file's data,
// indirect blocks, and inode into consecutive staging segments.
func TestMetadataSelfContainedOnVolume(t *testing.T) {
	e := newHL(t, 96, 10, 4, 24)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(13, 40*lfs.BlockSize) // fits comfortably on one volume
		f := put(t, p, hl, "/selfcontained", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, true); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		vols := map[int]bool{}
		refs, _ := hl.FS.FileBlockRefs(p, f.Inum())
		for _, r := range refs {
			_, v, _, ok := hl.Amap.Loc(hl.Amap.SegOf(r.Addr))
			if !ok {
				t.Fatalf("block %d not tertiary", r.Lbn)
			}
			vols[v] = true
		}
		imapE := hl.FS.Imap(f.Inum())
		_, iv, _, ok := hl.Amap.Loc(hl.Amap.SegOf(imapE.Addr))
		if !ok {
			t.Fatal("inode not tertiary")
		}
		vols[iv] = true
		if len(vols) != 1 {
			t.Fatalf("file and its metadata span %d volumes, want 1 (self-contained)", len(vols))
		}
	})
	e.k.Stop()
}

func TestDeadZoneReadRejected(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		bm := &blockMap{hl: e.hl}
		dead := addr.SegNo(e.hl.Amap.DiskSegs() + 100)
		if e.hl.Amap.IsDiskSeg(dead) || e.hl.Amap.IsTertiarySeg(dead) {
			t.Fatal("test segment not in dead zone")
		}
		err := bm.ReadBlocks(p, e.hl.Amap.BlockOf(dead, 0), make([]byte, lfs.BlockSize))
		if err == nil {
			t.Fatal("dead-zone read accepted")
		}
	})
	e.k.Stop()
}

func TestBlockMapSpansDiskSegments(t *testing.T) {
	// Multi-segment disk reads (e.g. the checkpoint table region) must
	// pass through the block map in one call.
	e := newHL(t, 64, 8, 4, 16)
	e.run(t, func(p *sim.Proc) {
		bm := &blockMap{hl: e.hl}
		n := 3 * e.hl.Amap.SegBlocks() * lfs.BlockSize
		w := pat(77, n)
		if err := bm.WriteBlocks(p, e.hl.Amap.BlockOf(30, 0), w); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, n)
		if err := bm.ReadBlocks(p, e.hl.Amap.BlockOf(30, 0), r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("multi-segment block map round trip failed")
		}
	})
	e.k.Stop()
}
