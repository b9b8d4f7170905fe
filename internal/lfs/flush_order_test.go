package lfs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// readLog records where every device read starts.
type readLog struct {
	*dev.Disk
	reads []int64
}

func (r *readLog) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	r.reads = append(r.reads, blk)
	return r.Disk.ReadBlocks(p, blk, buf)
}

func (r *readLog) ReadParts(p *sim.Proc, parts []dev.Part) error {
	r.reads = append(r.reads, parts[0].Blk)
	return r.Disk.ReadParts(p, parts)
}

// TestFlushLoadsUncachedParentsInKeyOrder pins the order of the timed reads
// a flush issues when the buffer cache is too small to have kept the
// indirect blocks of the files it is writing: one dirty block in each of
// ten files, the parents pushed out by a scan of another file, then Sync.
// The dirty set is a Go map; ranged over as it comes, the reads (and the
// seeks between them) changed from run to run.
func TestFlushLoadsUncachedParentsInKeyOrder(t *testing.T) {
	const files, fileBlocks = 10, nDirect + 8
	run := func() (reads []int64) {
		k := sim.NewKernel()
		amap := addr.New(32, 128)
		log := &readLog{Disk: dev.NewDisk(k, dev.RZ57, 128*32, nil)}
		k.RunProc(func(p *sim.Proc) {
			fs, err := Format(p, DiskDevice{log}, amap, Options{MaxInodes: 128, BufferBytes: 1}) // the minimum, 64 blocks
			if err != nil {
				t.Fatal(err)
			}
			var fl []*File
			for i := 0; i < files; i++ {
				fl = append(fl, writeFile(t, p, fs, fmt.Sprintf("/f%d", i), pattern(byte(i), fileBlocks*BlockSize)))
			}
			big := writeFile(t, p, fs, "/big", pattern(99, 100*BlockSize))
			if err := fs.FlushCaches(p); err != nil {
				t.Fatal(err)
			}
			for i, f := range fl {
				if _, err := f.WriteAt(p, pattern(byte(50+i), BlockSize), (nDirect+3)*BlockSize); err != nil {
					t.Fatal(err)
				}
			}
			readAll(t, p, big) // pushes the clean indirect blocks out; the dirty blocks stay
			log.reads = nil
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
			reads = log.reads
		})
		return reads
	}
	first := run()
	if len(first) < files {
		t.Fatalf("the flush read %d blocks, want one parent per file (%d): the cache kept them", len(first), files)
	}
	for i := 1; i < 20; i++ {
		if again := run(); !slices.Equal(again, first) {
			t.Fatalf("run %d read blocks %v, run 0 read %v", i, again, first)
		}
	}
}
