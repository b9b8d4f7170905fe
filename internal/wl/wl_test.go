package wl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/ffs"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/sim"
)

func smallSpec() LargeObjectSpec {
	return LargeObjectSpec{Path: "/obj", Frames: 64, SeqFrames: 32, SmallFrames: 16, Seed: 7}
}

func TestLargeObjectOnLFS(t *testing.T) {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 64*64, nil)
	amap := addr.New(64, 64)
	k.RunProc(func(p *sim.Proc) {
		fs, err := lfs.Format(p, lfs.DiskDevice{BD: disk}, amap, lfs.Options{MaxInodes: 64})
		if err != nil {
			t.Fatal(err)
		}
		target := LFSTarget{Label: "lfs", FS: fs}
		f, err := CreateLargeObject(p, target, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunLargeObject(p, target, f, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 6 {
			t.Fatalf("got %d phases, want 6", len(results))
		}
		for _, r := range results {
			if r.Elapsed <= 0 || r.Bytes <= 0 {
				t.Fatalf("phase %s has empty measurement: %+v", r.Name, r)
			}
			if r.ThroughputKBs() <= 0 {
				t.Fatalf("phase %s throughput zero", r.Name)
			}
		}
		if results[0].Name != "sequential read" || results[5].Name != "write 80/20" {
			t.Fatalf("phase order wrong: %v", results)
		}
	})
}

func TestLargeObjectOnFFS(t *testing.T) {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 8192, nil)
	k.RunProc(func(p *sim.Proc) {
		fs, err := ffs.Format(p, disk, ffs.Options{MaxInodes: 64})
		if err != nil {
			t.Fatal(err)
		}
		target := FFSTarget{Label: "ffs", FS: fs}
		f, err := CreateLargeObject(p, target, smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunLargeObject(p, target, f, smallSpec()); err != nil {
			t.Fatal(err)
		}
	})
}

// newTreeHL formats a small HighLight on a fresh kernel inside p's process.
func newTreeHL(tb testing.TB, k *sim.Kernel, p *sim.Proc) *core.HighLight {
	tb.Helper()
	hl, err := core.New(p, core.Config{
		SegBlocks: 16,
		Disks:     []dev.BlockDev{dev.NewDisk(k, dev.RZ57, 128*16, nil)},
		Jukeboxes: []jukebox.Footprint{jukebox.MustNew(k, jukebox.MO6300, 2, 2, 16, 16*lfs.BlockSize, nil)},
		CacheSegs: 8,
		MaxInodes: 256,
	}, true)
	if err != nil {
		tb.Fatal(err)
	}
	return hl
}

func TestBuildTreeAndScan(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl := newTreeHL(t, k, p)
		paths, err := BuildTree(p, hl, TreeSpec{Dirs: 3, FilesPerDir: 4, FileBlocks: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 12 {
			t.Fatalf("built %d files, want 12", len(paths))
		}
		fi, err := hl.FS.Stat(p, paths[0])
		if err != nil || fi.Size == 0 {
			t.Fatalf("stat %s: %+v %v", paths[0], fi, err)
		}
		if err := hl.FS.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		f, err := hl.FS.Open(p, paths[0])
		if err != nil {
			t.Fatal(err)
		}
		fb, tot, err := SequentialScan(p, f, int64(fi.Size))
		if err != nil {
			t.Fatal(err)
		}
		if fb <= 0 || tot < fb {
			t.Fatalf("scan times wrong: first=%v total=%v", fb, tot)
		}
	})
	k.Stop()
}

// TestBuildTreeContent: with jittered sizes, each file read back from the
// media holds byte(d*31 + fi*7 + i) at offset i and has the size of its
// seeded draw, drawn in file order; the largest size the spec allows is drawn
// at least once, so the shared buffer is filled to its end. A spec of zero
// blocks writes empty files.
func TestBuildTreeContent(t *testing.T) {
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		hl := newTreeHL(t, k, p)
		for _, spec := range []TreeSpec{
			{Dirs: 3, FilesPerDir: 5, FileBlocks: 4, SizeJitterPct: 75, Seed: 1993, PathPrefix: "/j"},
			{Dirs: 2, FilesPerDir: 2, FileBlocks: 0, SizeJitterPct: 25, Seed: 1, PathPrefix: "/z"},
		} {
			if err := hl.FS.Mkdir(p, spec.PathPrefix); err != nil {
				t.Fatal(err)
			}
			paths, err := BuildTree(p, hl, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := hl.FS.FlushCaches(p); err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(spec.Seed)
			largest := 0
			for n, path := range paths {
				d, fi := n/spec.FilesPerDir, n%spec.FilesPerDir
				blocks := spec.FileBlocks + rng.Intn(spec.FileBlocks*spec.SizeJitterPct/100+1)
				largest = max(largest, blocks)
				want := make([]byte, blocks*lfs.BlockSize)
				for i := range want {
					want[i] = byte(d*31 + fi*7 + i)
				}
				f, err := hl.FS.Open(p, path)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(want)+1)
				m, err := f.ReadAt(p, got, 0)
				if err != io.EOF {
					t.Fatalf("%s: read %d bytes, error %v, want EOF", path, m, err)
				}
				if !bytes.Equal(got[:m], want) {
					t.Fatalf("%s: %d bytes differ from the %d-block pattern", path, m, blocks)
				}
			}
			if len(paths) != spec.Dirs*spec.FilesPerDir || largest != spec.FileBlocks*(100+spec.SizeJitterPct)/100 {
				t.Fatalf("%s: %d files, largest %d blocks", spec.PathPrefix, len(paths), largest)
			}
		}
	})
	k.Stop()
}

// BenchmarkBuildTree builds the migrate workload's small tree (40 files of
// 12-15 blocks) on a fresh HighLight per iteration, the format outside the
// timer. B/op is the generator's one buffer plus what lfs allocates to write
// the tree.
func BenchmarkBuildTree(b *testing.B) {
	spec := TreeSpec{Dirs: 4, FilesPerDir: 10, FileBlocks: 12, SizeJitterPct: 25, Seed: 1993}
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		k.RunProc(func(p *sim.Proc) {
			hl := newTreeHL(b, k, p)
			b.StartTimer()
			if _, err := BuildTree(p, hl, spec); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		})
		k.Stop()
	}
}

func TestSequentialScanFirstByteBeforeTotal(t *testing.T) {
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, 4096, nil)
	k.RunProc(func(p *sim.Proc) {
		fs, err := ffs.Format(p, disk, ffs.Options{MaxInodes: 64})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 100*1024)
		if _, err := f.WriteAt(p, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		fb, tot, err := SequentialScan(p, f, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if fb <= 0 || tot <= fb {
			t.Fatalf("first byte %v should precede total %v", fb, tot)
		}
	})
}

// TestTiledFrameMatchesByteLoop: the frame patterns are written as one
// period and tiled; the bytes are those of the whole-frame byte loop.
func TestTiledFrameMatchesByteLoop(t *testing.T) {
	got, want := make([]byte, FrameSize), make([]byte, FrameSize)
	for _, i := range []int{0, 1, 2, 7, 255, 256, 257, 1000, 12499} {
		for name, at := range map[string]func(j int) byte{
			"i+j": func(j int) byte { return byte(i + j) },
			"i*j": func(j int) byte { return byte(i * j) },
		} {
			for j := range want {
				want[j] = at(j)
			}
			clear(got)
			for j := range got[:patternPeriod] {
				got[j] = at(j)
			}
			tile(got, patternPeriod)
			if !bytes.Equal(got, want) {
				t.Fatalf("pattern %s, frame %d: tiled frame differs from the byte loop", name, i)
			}
		}
	}
}

// memFile is a read-only Handle over bytes in memory. With sleep set, each
// ReadAt fills b, sleeps, and fails if b changed while it slept.
type memFile struct {
	data  []byte
	sleep time.Duration
}

func (m memFile) ReadAt(p *sim.Proc, b []byte, off int64) (int, error) {
	n := copy(b, m.data[off:])
	if m.sleep > 0 {
		p.Sleep(m.sleep)
		if !bytes.Equal(b[:n], m.data[off:][:n]) {
			return n, fmt.Errorf("bytes at %d changed while ReadAt slept", off)
		}
	}
	if off+int64(n) == int64(len(m.data)) {
		return n, io.EOF
	}
	return n, nil
}

func (memFile) WriteAt(*sim.Proc, []byte, int64) (int, error) {
	return 0, errors.New("memFile: read-only")
}

// raceEnabled is set under -race, where sync.Pool drops a share of what it
// is given back.
var raceEnabled bool

// TestSequentialScanAllocatesNothing: a scan borrows its 8 KB buffer from
// the pool and gives it back.
func TestSequentialScanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	var f Handle = memFile{data: make([]byte, 100*1024)}
	sim.NewKernel().RunProc(func(p *sim.Proc) {
		if n := testing.AllocsPerRun(50, func() {
			if _, _, err := SequentialScan(p, f, 100*1024); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v allocations per scan, want 0", n)
		}
	})
}

// TestConcurrentScansKeepTheirBuffers: two kernels on goroutines of their
// own, each with two procs scanning at once and yielding inside every
// ReadAt, never share a buffer.
func TestConcurrentScansKeepTheirBuffers(t *testing.T) {
	var wg sync.WaitGroup
	for kern := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := sim.NewKernel()
			for i := range 2 {
				data := bytes.Repeat([]byte{byte(2*kern + i + 1)}, 64*1024)
				k.Go("scan", func(p *sim.Proc) {
					if _, _, err := SequentialScan(p, memFile{data: data, sleep: time.Millisecond}, int64(len(data))); err != nil {
						t.Errorf("kernel %d, scan %d: %v", kern, i, err)
					}
				})
			}
			k.Run()
		}()
	}
	wg.Wait()
}

// BenchmarkSequentialScan: one 128 KB scan of a file in memory, sixteen
// 8 KB reads; its allocs/op is the scan's own.
func BenchmarkSequentialScan(b *testing.B) {
	var f Handle = memFile{data: make([]byte, 128*1024)}
	b.ReportAllocs()
	sim.NewKernel().RunProc(func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, _, err := SequentialScan(p, f, 128*1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}
