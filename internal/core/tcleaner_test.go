package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/lfs"
	"repro/internal/sim"
)

func TestVolumeUsagesTracksLiveData(t *testing.T) {
	e := newHL(t, 64, 8, 3, 8)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := put(t, p, hl, "/a", pat(1, 20*lfs.BlockSize))
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		usages := hl.VolumeUsages()
		if len(usages) != 3 {
			t.Fatalf("got %d volume usages, want 3", len(usages))
		}
		if usages[0].UsedSegs == 0 || usages[0].LiveBytes == 0 {
			t.Fatalf("volume 0 shows no usage: %+v", usages[0])
		}
		if usages[2].UsedSegs != 0 {
			t.Fatalf("volume 2 should be empty: %+v", usages[2])
		}
	})
	e.k.Stop()
}

func TestCleanVolumeRelocatesLiveDataAndReclaimsMedium(t *testing.T) {
	e := newHL(t, 96, 10, 3, 8)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		// Two files on volume 0; delete one so the volume is half dead.
		dataA := pat(1, 30*lfs.BlockSize)
		fa := put(t, p, hl, "/keep", dataA)
		fb := put(t, p, hl, "/dead", pat(2, 30*lfs.BlockSize))
		if _, err := hl.MigrateFiles(p, []uint32{fa.Inum(), fb.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Remove(p, "/dead"); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Volume 0 now has dead space; clean it.
		u, ok := hl.SelectCleanableVolume()
		if !ok {
			t.Fatal("no cleanable volume found")
		}
		moved, err := hl.CleanVolume(p, u.Device, u.Volume)
		if err != nil {
			t.Fatalf("CleanVolume: %v", err)
		}
		if moved == 0 {
			t.Fatal("no blocks relocated off the cleaned volume")
		}
		// The cleaned volume's segments are reusable again.
		after := hl.VolumeUsages()
		if after[u.Volume].UsedSegs != 0 || after[u.Volume].LiveBytes != 0 {
			t.Fatalf("cleaned volume not reclaimed: %+v", after[u.Volume])
		}
		// The kept file survived, now on another volume.
		hl.FS.DropFileBuffers(p, fa.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		if got := get(t, p, fa); !bytes.Equal(got, dataA) {
			t.Fatal("live file corrupted by tertiary cleaning")
		}
		refs, _ := hl.FS.FileBlockRefs(p, fa.Inum())
		for _, r := range refs {
			d, v, _, ok := hl.Amap.Loc(hl.Amap.SegOf(r.Addr))
			if !ok {
				t.Fatalf("block %d not tertiary after clean", r.Lbn)
			}
			if d == u.Device && v == u.Volume {
				t.Fatalf("block %d still on the cleaned volume", r.Lbn)
			}
		}
	})
	e.k.Stop()
}

func TestCleanVolumeReusesReclaimedSegments(t *testing.T) {
	e := newHL(t, 96, 10, 2, 6) // tiny tertiary: 12 segments total
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		// Fill most of both volumes, delete everything, clean, and
		// verify new migrations can use the reclaimed media.
		var inums []uint32
		for i := 0; i < 4; i++ {
			f := put(t, p, hl, "/f"+string(rune('a'+i)), pat(byte(i), 20*lfs.BlockSize))
			inums = append(inums, f.Inum())
		}
		if _, err := hl.MigrateFiles(p, inums, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := hl.FS.Remove(p, "/f"+string(rune('a'+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 2; v++ {
			if _, err := hl.CleanVolume(p, 0, v); err != nil {
				t.Fatalf("clean volume %d: %v", v, err)
			}
		}
		// New data must fit again (tertiary was exhausted before).
		g := put(t, p, hl, "/fresh", pat(9, 40*lfs.BlockSize))
		if _, err := hl.MigrateFiles(p, []uint32{g.Inum()}, false); err != nil {
			t.Fatalf("migration after volume cleaning: %v", err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		hl.FS.DropFileBuffers(p, g.Inum())
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatal(err)
			}
		}
		if got := get(t, p, g); !bytes.Equal(got, pat(9, 40*lfs.BlockSize)) {
			t.Fatal("data on reclaimed media corrupted")
		}
	})
	e.k.Stop()
}

// TestCleanVolumeRefusesTornSegment: a cached copy of a tertiary segment
// with one flipped data byte fails its partial segment's checksum. The
// cleaner must neither re-stage those bytes nor erase the medium that holds
// the good copy: CleanVolume stops with ErrTornSegment before it resets a
// segment, and the file reads back from the medium once the line is gone.
func TestCleanVolumeRefusesTornSegment(t *testing.T) {
	e := newHL(t, 96, 10, 3, 8)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		data := pat(1, 30*lfs.BlockSize)
		f := put(t, p, hl, "/keep", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		before := hl.VolumeUsages()[0]
		line, ok := hl.Cache.Peek(0)
		if !ok || before.UsedSegs < 2 {
			t.Fatalf("setup: segment 0 cached = %v, volume 0 = %+v", ok, before)
		}
		blk := make([]byte, lfs.BlockSize)
		at := int64(hl.Amap.BlockOf(line.DiskSeg, 2))
		if err := e.disk.ReadBlocks(p, at, blk); err != nil {
			t.Fatal(err)
		}
		blk[100] ^= 0x01
		if err := e.disk.WriteBlocks(p, at, blk); err != nil {
			t.Fatal(err)
		}

		if _, err := hl.CleanVolume(p, 0, 0); !errors.Is(err, ErrTornSegment) {
			t.Fatalf("CleanVolume over a torn line = %v, want ErrTornSegment", err)
		}
		if after := hl.VolumeUsages()[0]; after.UsedSegs != before.UsedSegs || after.LiveBytes != before.LiveBytes {
			t.Fatalf("volume 0 was %+v, is %+v after the refused clean", before, after)
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		if n, err := hl.Svc.EjectAll(); err != nil || n == 0 {
			t.Fatalf("EjectAll = %d, %v", n, err)
		}
		if got := get(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("file does not read back from the medium after the refused clean")
		}
	})
	e.k.Stop()
}
