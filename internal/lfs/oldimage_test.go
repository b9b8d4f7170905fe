package lfs_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fsck"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestOldImageWithTheRetiredBitMounts: an image of the older format may
// carry bit 5 (segRetired) on a written tertiary segment whose cache line
// is gone, and an ordinary /.hsm/state file. It mounts, fsck finds nothing,
// both files read back as written, and after one checkpoint and a second
// mount no tertiary segment entry on the media carries the bit.
func TestOldImageWithTheRetiredBitMounts(t *testing.T) {
	const segBlocks = 16
	var diskImg, jukeImg bytes.Buffer
	data := make([]byte, 3*segBlocks*lfs.BlockSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	state := []byte(`{"next_id":2,"pins":[{"path":"/data","inum":3,"segs":[0]}]}`)
	// mount runs fn on an instance built over the saved images (formatted
	// when they are empty), then saves the images again.
	mount := func(fn func(p *sim.Proc, hl *core.HighLight)) {
		t.Helper()
		k := sim.NewKernel()
		defer k.Stop()
		disk := dev.NewDisk(k, dev.RZ57, 128*segBlocks, nil)
		juke := jukebox.MustNew(k, jukebox.MO6300, 2, 4, 16, segBlocks*lfs.BlockSize, nil)
		format := diskImg.Len() == 0
		if !format {
			if err := errors.Join(disk.LoadStore(&diskImg), juke.LoadStore(&jukeImg)); err != nil {
				t.Fatal(err)
			}
		}
		k.RunProc(func(p *sim.Proc) {
			hl, err := core.New(p, core.Config{
				SegBlocks: segBlocks,
				Disks:     []dev.BlockDev{disk},
				Jukeboxes: []jukebox.Footprint{juke},
				CacheSegs: 12,
				MaxInodes: 256,
			}, format)
			if err != nil {
				t.Fatal(err)
			}
			fn(p, hl)
		})
		diskImg.Reset()
		jukeImg.Reset()
		if err := errors.Join(disk.SaveStore(&diskImg), juke.SaveStore(&jukeImg)); err != nil {
			t.Fatal(err)
		}
	}
	write := func(p *sim.Proc, hl *core.HighLight, path string, b []byte) *lfs.File {
		f, err := hl.FS.Create(p, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, b, 0); err != nil {
			t.Fatal(err)
		}
		return f
	}
	readBack := func(p *sim.Proc, hl *core.HighLight, path string, want []byte) {
		f, err := hl.FS.Open(p, path)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want)+1)
		n, err := f.ReadAt(p, got, 0)
		if err != nil && n != len(want) {
			t.Fatalf("reading %s: %v", path, err)
		}
		if !bytes.Equal(got[:n], want) {
			t.Fatalf("%s reads back %d other bytes", path, n)
		}
	}
	check := func(p *sim.Proc, hl *core.HighLight) {
		rep, err := fsck.Check(p, hl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck: %v", rep.Problems)
		}
	}

	tag := -1
	mount(func(p *sim.Proc, hl *core.HighLight) {
		f := write(p, hl, "/data", data)
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < hl.FS.TsegCount() && tag < 0; idx++ {
			if hl.FS.TsegUsage(idx).Flags&lfs.SegDirty != 0 {
				tag = idx
			}
		}
		if tag < 0 {
			t.Fatal("the migration wrote no tertiary segment")
		}
		hl.FS.SetRetiredBit(tag)
		if err := hl.Svc.Eject(tag); err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Mkdir(p, "/.hsm"); err != nil {
			t.Fatal(err)
		}
		write(p, hl, "/.hsm/state", state)
		if err := hl.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	mount(func(p *sim.Proc, hl *core.HighLight) {
		if hl.FS.MountedTsegFlags()[tag]&lfs.RetiredBit == 0 {
			t.Fatalf("the image does not carry the bit on tertiary segment %d", tag)
		}
		if hl.FS.TsegUsage(tag).Flags&lfs.RetiredBit != 0 {
			t.Fatalf("the mount kept the bit on tertiary segment %d", tag)
		}
		if _, ok := hl.Cache.Peek(tag); ok {
			t.Fatalf("tertiary segment %d is cached at mount", tag)
		}
		check(p, hl)
		readBack(p, hl, "/data", data)
		readBack(p, hl, "/.hsm/state", state)
		if err := hl.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	mount(func(p *sim.Proc, hl *core.HighLight) {
		for idx, fl := range hl.FS.MountedTsegFlags() {
			if fl&lfs.RetiredBit != 0 {
				t.Errorf("tertiary segment %d still carries the bit on the media", idx)
			}
		}
		check(p, hl)
		readBack(p, hl, "/.hsm/state", state)
	})
}
