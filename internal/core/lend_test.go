package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestLentBlocksAreNeverWritten: after a demand fetch, the file system reads
// a fetched line's blocks as views of the image the line adopted, which is
// the changer's own segment image and, with Replicas: 2, the sibling
// library's too. A full-block overwrite, a partial overwrite, a truncate
// inside a block and a directory edit each write into such a block; and a
// flood of reads evicts the rest from a buffer cache whose freed blocks are
// poisoned (poison_test.go). Every step must leave the fetched lines' disk
// bytes and every image on both libraries as they were before it, and the
// file read back as the steps wrote it.
func TestLentBlocksAreNeverWritten(t *testing.T) {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 256*16, nil)
	var jukes []jukebox.Footprint
	for i := 0; i < 2; i++ {
		jukes = append(jukes, jukebox.MustNew(k, jukebox.MO6300, 2, 4, 32, 16*lfs.BlockSize, nil))
	}
	k.RunProc(func(p *sim.Proc) {
		hl, err := New(p, Config{SegBlocks: 16, Disks: []dev.BlockDev{disk}, Jukeboxes: jukes,
			CacheSegs: 64, MaxInodes: 256, Replicas: 2, Streams: 2, BufferBytes: 96 * lfs.BlockSize}, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := hl.FS.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ { // a directory of several blocks
			put(t, p, hl, fmt.Sprintf("/d/entry-with-a-long-name-%03d", i), nil)
		}
		data := pat(7, 40*lfs.BlockSize)
		f := put(t, p, hl, "/d/big", data)
		flood := put(t, p, hl, "/flood", pat(9, 160*lfs.BlockSize))
		dir, err := hl.FS.Stat(p, "/d")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hl.MigrateFiles(p, []uint32{f.Inum(), dir.Inum, flood.Inum()}, false); err != nil {
			t.Fatal(err)
		}
		if err := hl.CompleteMigration(p); err != nil {
			t.Fatal(err)
		}
		hl.Svc.EjectAll()
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}

		// Demand-fetch the file and the directory; their blocks are lent.
		if got, err := readWhole(p, f, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("first read of /d/big: err %v", err)
		}
		if _, err := hl.FS.Open(p, "/d/entry-with-a-long-name-149"); err != nil {
			t.Fatal(err)
		}
		if len(hl.Cache.Lines()) == 0 {
			t.Fatal("nothing was fetched")
		}

		// The bytes no write may change: every replicated segment's image on
		// both libraries, and the disk copy of every line fetched so far.
		media := func() map[string][]byte {
			m := map[string][]byte{}
			for prim, reps := range hl.ReplicaCatalog() {
				for _, tag := range append([]int{prim}, reps...) {
					d, v, s, _ := hl.Amap.Loc(hl.Amap.SegForIndex(tag))
					img, err := jukes[d].LendSegment(p, v, s)
					if err != nil {
						t.Fatal(err)
					}
					m[fmt.Sprintf("library %d segment %d", d, tag)] = bytes.Clone(img)
				}
			}
			for _, l := range hl.Cache.Lines() {
				line := make([]byte, 16*lfs.BlockSize)
				if err := disk.ReadBlocks(p, int64(hl.Amap.BlockOf(l.DiskSeg, 0)), line); err != nil {
					t.Fatal(err)
				}
				m[fmt.Sprintf("disk line of segment %d", l.Tag)] = line
			}
			return m
		}
		before := media()
		check := func(step string) {
			t.Helper()
			after := media()
			for name, b := range before {
				if a, ok := after[name]; ok && !bytes.Equal(a, b) {
					t.Errorf("%s changed the bytes of %s", step, name)
				}
			}
			before = after
			want := data
			if got, err := readWhole(p, f, len(want)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("after %s /d/big reads back wrong (err %v)", step, err)
			}
		}

		write := func(b []byte, off int) {
			t.Helper()
			if _, err := f.WriteAt(p, b, int64(off)); err != nil {
				t.Fatal(err)
			}
			copy(data[off:], b)
		}
		write(pat(1, lfs.BlockSize), 3*lfs.BlockSize)
		check("a full-block overwrite")
		write(pat(2, 50), 5*lfs.BlockSize+100)
		check("a partial overwrite")
		if err := f.Truncate(p, 20*lfs.BlockSize+123); err != nil {
			t.Fatal(err)
		}
		data = data[:20*lfs.BlockSize+123]
		check("a truncate inside a block")
		put(t, p, hl, "/d/added", nil)
		if err := hl.FS.Remove(p, "/d/entry-with-a-long-name-010"); err != nil {
			t.Fatal(err)
		}
		check("a directory edit")
		if _, err := hl.FS.Open(p, "/d/entry-with-a-long-name-149"); err != nil {
			t.Errorf("after the directory edit: %v", err)
		}
		if _, err := readWhole(p, flood, 160*lfs.BlockSize); err != nil {
			t.Fatal(err)
		}
		check("evicting the lent buffers")
		if err := hl.FS.Sync(p); err != nil {
			t.Fatal(err)
		}
		check("a sync")
	})
	k.Stop()
}
