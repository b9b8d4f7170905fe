package lfs

import (
	"io"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// Micro-benchmarks for the file system hot paths. ns/op measures HOST
// cpu cost (simulation overhead); the virtual-seconds metrics report the
// modelled I/O time — both matter: the first bounds simulation speed, the
// second tracks the file system's I/O efficiency.

func benchFS(b *testing.B) (*sim.Kernel, *FS) {
	k := sim.NewKernel()
	amap := addr.New(256, 256)
	disk := dev.NewDisk(k, dev.RZ57, int64(256*256), nil)
	var fs *FS
	k.RunProc(func(p *sim.Proc) {
		var err error
		fs, err = Format(p, DiskDevice{disk}, amap, Options{MaxInodes: 4096, BufferBytes: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		// Long benchmark runs churn far more data than the disk holds;
		// the emergency cleaner keeps the log supplied with segments.
		fs.AttachCleaner(8, 16)
	})
	return k, fs
}

func BenchmarkLFSSequentialWrite1MB(b *testing.B) {
	k, fs := benchFS(b)
	var virt sim.Time
	k.RunProc(func(p *sim.Proc) {
		f, err := fs.Create(p, "/bench")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAt(p, buf, 0); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				b.Fatal(err)
			}
			if i%32 == 31 {
				// Reclaim the dead overwrites outside the timed region.
				b.StopTimer()
				t1 := p.Now()
				if _, err := fs.CleanSegments(p, fs.SelectCleanable(0)); err != nil {
					b.Fatal(err)
				}
				t0 += p.Now() - t1 // exclude cleaning from virtual metric
				b.StartTimer()
			}
		}
		virt = p.Now() - t0
	})
	b.ReportMetric(virt.Seconds()/float64(b.N), "virtual-s/op")
}

func BenchmarkLFSSequentialRead1MB(b *testing.B) {
	k, fs := benchFS(b)
	var virt sim.Time
	k.RunProc(func(p *sim.Proc) {
		f, err := fs.Create(p, "/bench")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		if _, err := f.WriteAt(p, buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := fs.Sync(p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			if err := fs.FlushCaches(p); err != nil {
				b.Fatal(err)
			}
			if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
				b.Fatal(err)
			}
		}
		virt = p.Now() - t0
	})
	b.ReportMetric(virt.Seconds()/float64(b.N), "virtual-s/op")
}

func BenchmarkLFSRandomRead4KB(b *testing.B) {
	k, fs := benchFS(b)
	var virt sim.Time
	k.RunProc(func(p *sim.Proc) {
		f, err := fs.Create(p, "/bench")
		if err != nil {
			b.Fatal(err)
		}
		const blocks = 4096 // 16 MB
		if _, err := f.WriteAt(p, make([]byte, blocks*BlockSize), 0); err != nil {
			b.Fatal(err)
		}
		if err := fs.FlushCaches(p); err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(1)
		buf := make([]byte, BlockSize)
		b.ResetTimer()
		t0 := p.Now()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(p, buf, int64(rng.Intn(blocks))*BlockSize); err != nil && err != io.EOF {
				b.Fatal(err)
			}
		}
		virt = p.Now() - t0
	})
	b.ReportMetric(virt.Seconds()/float64(b.N)*1000, "virtual-ms/op")
}

func BenchmarkLFSCreateSmallFile(b *testing.B) {
	k, fs := benchFS(b)
	k.RunProc(func(p *sim.Proc) {
		data := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := fs.Create(p, "/f"+itoa(i%3000))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(p, data, 0); err != nil {
				b.Fatal(err)
			}
			if i%3000 == 2999 {
				// Recycle the namespace to stay within MaxInodes.
				b.StopTimer()
				for j := 0; j < 3000; j++ {
					if err := fs.Remove(p, "/f"+itoa(j)); err != nil {
						b.Fatal(err)
					}
				}
				if err := fs.Sync(p); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	})
}

func BenchmarkLFSCleanSegment(b *testing.B) {
	k, fs := benchFS(b)
	k.RunProc(func(p *sim.Proc) {
		f, err := fs.Create(p, "/churn")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Create one mostly-dead segment per iteration.
			if _, err := f.WriteAt(p, make([]byte, 1<<20), 0); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				b.Fatal(err)
			}
			if _, err := f.WriteAt(p, make([]byte, 1<<20), 0); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				b.Fatal(err)
			}
			segs := fs.selectLeastLive(1)
			if len(segs) == 0 {
				b.Fatal("nothing cleanable")
			}
			b.StartTimer()
			if _, err := fs.CleanSegments(p, segs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBufferEvict: an insert into a full buffer cache whose LRU victim
// is a pointer block of migrated data and whose reserve is full, so each
// insert moves one buffer to the reserve and drops the reserve's oldest: the
// longest path through evictLocked. The block is recycled; the one allocation
// per insert is the buf header, which is not (dropBuf leaves a stale *buf
// faulting, not aliasing another block).
func BenchmarkBufferEvict(b *testing.B) {
	k := sim.NewKernel()
	amap := addr.New(64, 64, addr.Geom{Vols: 1, SegsPerVol: 8})
	disk := dev.NewDisk(k, dev.RZ57, 64*64, nil)
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, DiskDevice{disk}, amap, Options{MaxInodes: 64, BufferBytes: 64 * BlockSize})
		if err != nil {
			b.Fatal(err)
		}
		at := amap.BlockOf(amap.SegForIndex(0), 1)
		insert := func(i int) { fs.insertBuf(uint32(i%1024), LbnSingle, fs.newBlock(), at, false) }
		for i := 0; i < 1024; i++ {
			insert(i) // fills both lists and stocks the free list
		}
		poisonFreed = false // poison_test.go: a 4 KB fill per freed block would be all this measures
		defer func() { poisonFreed = true }()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insert(i)
		}
		b.StopTimer()
		if fs.bufBytes != fs.opts.BufferBytes || fs.reserve.n*BlockSize != fs.opts.BufferBytes/reserveShare {
			b.Fatalf("not the steady state: %d bytes cached, %d blocks in the reserve", fs.bufBytes, fs.reserve.n)
		}
	})
}

// fetchSegments stands in for a demand fetch on a plain disk: it gives the
// disk a fresh image of every segment holding a block of inum, adopted as a
// changer's segment image is (dev.Adopter), and returns the images by
// segment. The disk owns none of those extents afterwards.
func fetchSegments(tb testing.TB, p *sim.Proc, fs *FS, disk *dev.Disk, inum uint32) map[addr.SegNo][]byte {
	tb.Helper()
	refs, err := fs.FileBlockRefs(p, inum)
	if err != nil {
		tb.Fatal(err)
	}
	imgs := map[addr.SegNo][]byte{}
	for _, r := range refs {
		seg := fs.amap.SegOf(r.Addr)
		if imgs[seg] != nil {
			continue
		}
		img := make([]byte, fs.amap.SegBlocks()*BlockSize)
		start := int64(fs.amap.BlockOf(seg, 0))
		if err := disk.ReadBlocks(p, start, img); err != nil {
			tb.Fatal(err)
		}
		if err := disk.AdoptBlocks(p, start, img); err != nil {
			tb.Fatal(err)
		}
		imgs[seg] = img
	}
	return imgs
}

// benchReadLine times reading a 1 MB file back through the buffer cache
// after FlushCaches: from segments the disk adopted, as a demand fetch
// leaves a cache line (fetched), or from the disk's own extents. The free
// list is not poisoned here, as in the program.
func benchReadLine(b *testing.B, fetched bool) {
	defer func(was bool) { poisonFreed = was }(poisonFreed)
	poisonFreed = false
	e := newEnv(b, 256, 64, Options{MaxInodes: 64, BufferBytes: 8 << 20})
	e.k.RunProc(func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/line")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 1<<20)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		if _, err := f.WriteAt(p, buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			b.Fatal(err)
		}
		if fetched {
			fetchSegments(b, p, e.fs, e.disk, f.Inum())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.fs.FlushCaches(p); err != nil {
				b.Fatal(err)
			}
			if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkLFSReadFetchedLine1MB(b *testing.B) { benchReadLine(b, true) }

func BenchmarkLFSReadOwnedLine1MB(b *testing.B) { benchReadLine(b, false) }
