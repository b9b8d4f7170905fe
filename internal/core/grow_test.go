package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/stripe"
)

func TestAddDiskGrowsCapacityOnline(t *testing.T) {
	e := newHL(t, 24, 4, 4, 16) // small farm: 24 segments
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		// Fill until the original disk cannot take another file.
		var err error
		var i int
		for i = 0; i < 64; i++ {
			f, e2 := hl.FS.Create(p, "/fill"+string(rune('a'+i%26))+string(rune('0'+i/26)))
			if e2 != nil {
				err = e2
				break
			}
			if _, e2 := f.WriteAt(p, pat(byte(i), 16*lfs.BlockSize), 0); e2 != nil {
				err = e2
				break
			}
			if e2 := hl.FS.Sync(p); e2 != nil {
				err = e2
				break
			}
		}
		if err == nil {
			t.Fatal("small disk never filled")
		}
		before := hl.FS.CleanSegs()
		// Plug in a second disk.
		d2 := dev.NewDisk(e.k, dev.RZ58, int64(24*16), e.bus)
		segs, err := hl.AddDisk(p, d2)
		if err != nil {
			t.Fatalf("AddDisk: %v", err)
		}
		if segs != 24 {
			t.Fatalf("added %d segments, want 24", segs)
		}
		// GrowDisk's checkpoint flushes the write that failed above, so a
		// segment or two of the new space is consumed immediately.
		if hl.FS.CleanSegs() < before+20 {
			t.Fatalf("clean segments %d -> %d, want ~+24", before, hl.FS.CleanSegs())
		}
		// Writes succeed again and survive verification.
		data := pat(99, 48*lfs.BlockSize)
		f := put(t, p, hl, "/after-growth", data)
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("data on grown farm corrupted")
		}
	})
	e.k.Stop()
}

func TestAddDiskPersistsAcrossRemount(t *testing.T) {
	const segBlocks = 16
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	d1 := dev.NewDisk(k, dev.RZ57, int64(32*segBlocks), bus)
	d2 := dev.NewDisk(k, dev.RZ58, int64(16*segBlocks), bus)
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 2, 16, segBlocks*lfs.BlockSize, bus)
	data := pat(7, 30*lfs.BlockSize)
	cfg := Config{
		SegBlocks:   segBlocks,
		Disks:       []dev.BlockDev{d1},
		Jukeboxes:   []jukebox.Footprint{juke},
		CacheSegs:   6,
		MaxInodes:   128,
		BufferBytes: 1 << 20,
	}
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hl.AddDisk(p, d2); err != nil {
			t.Fatal(err)
		}
		f := put(t, p, hl, "/grown", data)
		_ = f
		if err := hl.FS.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	// Remount with both disks present.
	cfg.Disks = []dev.BlockDev{d1, d2}
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, cfg, false)
		if err != nil {
			t.Fatalf("remount with grown farm: %v", err)
		}
		f, err := hl.FS.Open(p, "/grown")
		if err != nil {
			t.Fatal(err)
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("grown-farm data lost across remount")
		}
	})
	k.Stop()
}

// TestAddDiskRefusedOnStripedFarm: a striped farm cannot grow in place.
// AddDisk says so with stripe.ErrStriped and leaves the instance as it was,
// and no component of such a farm owns a segment range.
func TestAddDiskRefusedOnStripedFarm(t *testing.T) {
	const segBlocks = 16
	k := sim.NewKernel()
	disk := func() dev.BlockDev { return dev.NewDisk(k, dev.RZ57, int64(16*segBlocks), nil) }
	juke := jukebox.MustNew(k, jukebox.MO6300, 2, 2, 16, segBlocks*lfs.BlockSize, nil)
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, Config{
			SegBlocks:  segBlocks,
			Disks:      []dev.BlockDev{disk(), disk(), disk()},
			StripeUnit: 4,
			Parity:     true,
			Jukeboxes:  []jukebox.Footprint{juke},
			CacheSegs:  6,
			MaxInodes:  128,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		blocks, segs := hl.Disk.NumBlocks(), hl.Amap.DiskSegs()
		if _, err := hl.AddDisk(p, disk()); !errors.Is(err, stripe.ErrStriped) {
			t.Fatalf("AddDisk on a striped farm: %v, want an error wrapping stripe.ErrStriped", err)
		}
		if hl.Disk.NumBlocks() != blocks || hl.Amap.DiskSegs() != segs {
			t.Fatal("refused AddDisk changed the farm or the address map")
		}
	})
	k.Stop()
}
