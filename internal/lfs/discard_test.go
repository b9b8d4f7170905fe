package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// cachedDisk is a DiskDevice over a disk with a write cache, which the file
// system's barriers drain.
type cachedDisk struct{ DiskDevice }

func (d cachedDisk) Flush(p *sim.Proc) error { return d.BD.(*dev.Disk).Flush(p) }

// dataOnlySegs returns the log segments that hold nothing but blocks of file
// inum: the segments a truncate of that file leaves dead.
func dataOnlySegs(t *testing.T, p *sim.Proc, fs *FS, inum uint32) []addr.SegNo {
	t.Helper()
	var out []addr.SegNo
	for s := fs.ReservedSegs(); s < fs.amap.DiskSegs(); s++ {
		if fs.SegUsage(addr.SegNo(s)).Flags&SegActive != 0 {
			continue
		}
		sc, err := fs.ReadSegment(p, addr.SegNo(s))
		if err != nil {
			t.Fatal(err)
		}
		only := len(sc.Blocks) > 0 && len(sc.Inodes) == 0
		for _, b := range sc.Blocks {
			only = only && b.Inum == inum
		}
		if only {
			out = append(out, addr.SegNo(s))
		}
	}
	return out
}

// TestDeadAtTableCheckpointSurvivesPowerCut: a file's data segments die in
// memory when it is truncated, and a table-only checkpoint (CheckpointTables)
// follows before any full one. The truncate is not durable then, so those
// segments must stay on the disk until the next full checkpoint's header is:
// power is cut after the table checkpoint and at every media write of the full
// checkpoint, on a disk with a write cache, and each cut must mount with the
// file either as written or as truncated, never with zeroes in its place.
// The recovered instance then overwrites every other block of the file and
// checkpoints: the old segments, whose live count it never kept (their usage
// table entry saturates at zero here), must still hold the other half.
func TestDeadAtTableCheckpointSurvivesPowerCut(t *testing.T) {
	const segBlocks, diskSegs, fileBlocks = 16, 48, 60
	amap := addr.New(segBlocks, diskSegs)
	data := pattern(7, fileBlocks*BlockSize)
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, diskSegs*segBlocks, nil)
	disk.EnableWriteCache(4 * segBlocks)
	var cuts [][]byte
	cut := func() {
		var img bytes.Buffer
		if err := disk.SaveStore(&img); err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, img.Bytes())
	}
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, cachedDisk{DiskDevice{disk}}, amap, Options{MaxInodes: 64})
		if err != nil {
			t.Fatal(err)
		}
		f := writeFile(t, p, fs, "/f", data)
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		dead := dataOnlySegs(t, p, fs, f.Inum())
		if len(dead) == 0 {
			t.Fatal("no segment holds only the file's blocks")
		}
		if err := f.Truncate(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.CheckpointTables(p); err != nil {
			t.Fatal(err)
		}
		for _, s := range dead {
			if fs.Discarded(s) {
				t.Errorf("segment %d discarded at a table-only checkpoint", s)
			}
		}
		cut()
		disk.Cut = &dev.Cut{Target: 1}
		disk.Cut.At = func() { cut(); disk.Cut.Target++ } // a cut at every media write
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		disk.Cut = nil
		for _, s := range dead {
			if !fs.Discarded(s) {
				t.Errorf("segment %d, dead, kept after the full checkpoint", s)
			}
		}
	})
	for i, img := range cuts {
		t.Run(fmt.Sprint("cut ", i), func(t *testing.T) {
			k := sim.NewKernel()
			disk := dev.NewDisk(k, dev.RZ57, diskSegs*segBlocks, nil)
			if err := disk.LoadStore(bytes.NewReader(img)); err != nil {
				t.Fatal(err)
			}
			k.RunProc(func(p *sim.Proc) {
				fs, err := Mount(p, DiskDevice{disk}, amap, Options{})
				if err != nil {
					t.Fatal(err)
				}
				f, err := fs.Open(p, "/f")
				if err != nil {
					t.Fatal(err)
				}
				want := bytes.Clone(data)
				switch got := readAll(t, p, f); {
				case len(got) == 0:
					want = make([]byte, (fileBlocks-1)*BlockSize) // truncated; refilled below up to its last even block
				case !bytes.Equal(got, data):
					t.Fatal("the file mounts with other bytes than it was written with")
				}
				half := pattern(9, BlockSize)
				for lbn := 0; lbn < fileBlocks; lbn += 2 {
					if _, err := f.WriteAt(p, half, int64(lbn*BlockSize)); err != nil {
						t.Fatal(err)
					}
					copy(want[lbn*BlockSize:], half)
				}
				if err := fs.Checkpoint(p); err != nil {
					t.Fatal(err)
				}
				if err := fs.FlushCaches(p); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(readAll(t, p, f), want) {
					t.Fatal("after rewriting half the file and a checkpoint, the other half reads other than written")
				}
			})
		})
	}
}

// TestCleanedAndReusedSegmentIsNotDiscarded: a file's data segment dies, the
// emergency cleaner reclaims it (its commit is a table-only checkpoint) and
// the log writes new files into it, all before a full checkpoint. At that
// checkpoint the segment holds live blocks again and must not be discarded
// for having been dead once.
func TestCleanedAndReusedSegmentIsNotDiscarded(t *testing.T) {
	e := newEnv(t, 16, 14, Options{MaxInodes: 64})
	e.fs.AttachCleaner(2, 4) // the emergency cleaner only; its daemon is not started
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/f", pattern(1, 30*BlockSize))
		if err := e.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		dead := dataOnlySegs(t, p, e.fs, f.Inum())
		if len(dead) == 0 {
			t.Fatal("no segment holds only the file's blocks")
		}
		s := dead[0]
		if err := e.fs.Remove(p, "/f"); err != nil {
			t.Fatal(err)
		}
		// Files of one segment each, only the last two kept, until the log
		// has written into the reclaimed segment.
		var names []string
		for i := 0; e.fs.live[s].n == 0; i++ {
			if i == 40 {
				t.Fatalf("segment %d was never cleaned and reused", s)
			}
			name := fmt.Sprint("/g", i)
			writeFile(t, p, e.fs, name, pattern(byte(10+i), 15*BlockSize))
			if err := e.fs.Sync(p); err != nil {
				t.Fatal(err)
			}
			if names = append(names, name); len(names) > 2 {
				if err := e.fs.Remove(p, names[0]); err != nil {
					t.Fatal(err)
				}
				names = names[1:]
			}
		}
		if e.fs.Stats().SegsCleaned == 0 {
			t.Fatal("the cleaner never ran")
		}
		if err := e.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		if e.fs.Discarded(s) {
			t.Errorf("segment %d discarded though the log wrote live blocks into it after it was cleaned", s)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			g, err := e.fs.Open(p, name)
			if err != nil {
				t.Fatal(err)
			}
			var i int
			fmt.Sscanf(name, "/g%d", &i)
			if !bytes.Equal(readAll(t, p, g), pattern(byte(10+i), 15*BlockSize)) {
				t.Fatalf("%s reads other than written", name)
			}
		}
	})
}
