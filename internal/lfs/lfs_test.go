package lfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// testEnv bundles a kernel, disk and mounted FS for tests.
type testEnv struct {
	k    *sim.Kernel
	disk *dev.Disk
	amap *addr.Map
	fs   *FS
}

// newEnv formats a small LFS: segBlocks-block segments, diskSegs segments.
func newEnv(t testing.TB, segBlocks, diskSegs int, opts Options) *testEnv {
	t.Helper()
	k := sim.NewKernel()
	amap := addr.New(segBlocks, diskSegs)
	disk := dev.NewDisk(k, dev.RZ57, int64(diskSegs*segBlocks), nil)
	env := &testEnv{k: k, disk: disk, amap: amap}
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, DiskDevice{disk}, amap, opts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		env.fs = fs
	})
	return env
}

func (e *testEnv) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e.k.RunProc(fn)
}

// pattern fills a buffer with a deterministic byte pattern seeded by tag.
func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(tag)*31+i) ^ byte(i>>8)
	}
	return b
}

func writeFile(t *testing.T, p *sim.Proc, fs *FS, path string, data []byte) *File {
	t.Helper()
	f, err := fs.Create(p, path)
	if err != nil {
		t.Fatalf("Create %s: %v", path, err)
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		t.Fatalf("WriteAt %s: %v", path, err)
	}
	return f
}

func readAll(t *testing.T, p *sim.Proc, f *File) []byte {
	t.Helper()
	sz, err := f.Size(p)
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	buf := make([]byte, sz)
	n, err := f.ReadAt(p, buf, 0)
	if err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if uint64(n) != sz {
		t.Fatalf("short read: %d of %d", n, sz)
	}
	return buf
}

func TestCreateWriteRead(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		data := pattern(1, 10000)
		f := writeFile(t, p, e.fs, "/hello", data)
		got := readAll(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("read back differs")
		}
	})
}

func TestReadAfterFlushCaches(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		data := pattern(2, 5*BlockSize+123)
		f := writeFile(t, p, e.fs, "/f", data)
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("read after cache flush differs")
		}
	})
}

func TestLargeFileSingleIndirect(t *testing.T) {
	e := newEnv(t, 32, 128, Options{MaxInodes: 128, BufferBytes: 1 << 20})
	e.run(t, func(p *sim.Proc) {
		// 40 blocks: exercises direct + single indirect.
		data := pattern(3, 40*BlockSize)
		f := writeFile(t, p, e.fs, "/big", data)
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("single-indirect file corrupted")
		}
	})
}

func TestLargeFileDoubleIndirect(t *testing.T) {
	// Needs > 12 + 1024 blocks => > 4.05 MB. Use 1100 blocks (4.3 MB).
	e := newEnv(t, 256, 64, Options{MaxInodes: 128, BufferBytes: 8 << 20})
	e.run(t, func(p *sim.Proc) {
		data := pattern(4, 1100*BlockSize)
		f := writeFile(t, p, e.fs, "/huge", data)
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("double-indirect file corrupted")
		}
	})
}

func TestSparseFileReadsZero(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/sparse")
		if err != nil {
			t.Fatal(err)
		}
		tail := pattern(5, 100)
		if _, err := f.WriteAt(p, tail, 20*BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		// Block 5 is a hole in the inode's direct pointers, block 15 one
		// under the single indirect block, whose slot was never assigned.
		buf := make([]byte, BlockSize)
		for _, lbn := range []int64{5, 15} {
			if _, err := f.ReadAt(p, buf, lbn*BlockSize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, BlockSize)) {
				t.Fatalf("hole at block %d not zero", lbn)
			}
		}
		refs, err := e.fs.FileBlockRefs(p, f.Inum())
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 2 || refs[0].Lbn != 20 || refs[1].Lbn != LbnSingle || refs[0].Addr == 0 || refs[1].Addr == 0 {
			t.Fatalf("FileBlockRefs %+v, want block 20 and the single indirect block, neither at address 0", refs)
		}
		got := make([]byte, 100)
		if _, err := f.ReadAt(p, got, 20*BlockSize); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tail) {
			t.Fatal("tail data wrong")
		}
	})
}

func TestOverwriteInPlaceSemantics(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/f", pattern(6, 10*BlockSize))
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		repl := pattern(7, BlockSize)
		if _, err := f.WriteAt(p, repl, 3*BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(p, got, 3*BlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, repl) {
			t.Fatal("overwrite lost")
		}
		// Neighbours intact.
		want := pattern(6, 10*BlockSize)
		if _, err := f.ReadAt(p, got, 2*BlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[2*BlockSize:3*BlockSize]) {
			t.Fatal("neighbour block damaged")
		}
	})
}

func TestPartialBlockWrites(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/f", pattern(8, 2*BlockSize))
		if _, err := f.WriteAt(p, []byte("XYZ"), 100); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		want := pattern(8, 2*BlockSize)
		copy(want[100:], "XYZ")
		if got := readAll(t, p, f); !bytes.Equal(got, want) {
			t.Fatal("partial write merged wrong")
		}
	})
}

func TestUnalignedCrossBlockWrite(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(9, 3*BlockSize)
		if _, err := f.WriteAt(p, data, 1000); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 1000); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("cross-block unaligned write wrong")
		}
		head := make([]byte, 1000)
		if _, err := f.ReadAt(p, head, 0); err != nil {
			t.Fatal(err)
		}
		for _, b := range head {
			if b != 0 {
				t.Fatal("leading hole not zero")
			}
		}
	})
}

func TestDirectoryOps(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		if err := fs.Mkdir(p, "/a"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Mkdir(p, "/a/b"); err != nil {
			t.Fatal(err)
		}
		writeFile(t, p, fs, "/a/b/file1", pattern(1, 100))
		writeFile(t, p, fs, "/a/file2", pattern(2, 100))
		ents, err := fs.ReadDir(p, "/a")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 2 {
			t.Fatalf("got %d entries, want 2", len(ents))
		}
		if _, err := fs.Open(p, "/a/b/file1"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/a/missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
		if _, err := fs.Create(p, "/a/file2"); !errors.Is(err, ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
		if err := fs.Mkdir(p, "/a"); !errors.Is(err, ErrExists) {
			t.Fatalf("mkdir existing: want ErrExists, got %v", err)
		}
		if _, err := fs.Open(p, "/a"); !errors.Is(err, ErrIsDir) {
			t.Fatalf("open dir: want ErrIsDir, got %v", err)
		}
		if _, err := fs.ReadDir(p, "/a/file2"); !errors.Is(err, ErrNotDir) {
			t.Fatalf("readdir file: want ErrNotDir, got %v", err)
		}
		// Empty and "." components name nothing, in a walk and in an edit.
		if _, err := fs.Open(p, "a/./b//file1"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Create(p, "//a/./file2/"); !errors.Is(err, ErrExists) {
			t.Fatalf("create existing: want ErrExists, got %v", err)
		}
		if _, err := fs.Create(p, "/a/none/./f"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("create under a missing directory: want ErrNotFound, got %v", err)
		}
		if _, err := fs.Create(p, "/./"); !errors.Is(err, ErrExists) {
			t.Fatalf("create root: want ErrExists, got %v", err)
		}
	})
}

func TestRemove(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		writeFile(t, p, fs, "/f", pattern(1, 5*BlockSize))
		if err := fs.Remove(p, "/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/f"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("removed file still opens: %v", err)
		}
		// Directory removal.
		if err := fs.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		writeFile(t, p, fs, "/d/x", pattern(2, 10))
		if err := fs.Remove(p, "/d"); !errors.Is(err, ErrNotEmpty) {
			t.Fatalf("non-empty rmdir: want ErrNotEmpty, got %v", err)
		}
		if err := fs.Remove(p, "/d/x"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(p, "/d"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInumReuseBumpsVersion(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		f1 := writeFile(t, p, fs, "/f", pattern(1, 10))
		v1 := fs.Imap(f1.Inum()).Version
		if err := fs.Remove(p, "/f"); err != nil {
			t.Fatal(err)
		}
		f2 := writeFile(t, p, fs, "/g", pattern(2, 10))
		if f2.Inum() != f1.Inum() {
			t.Skipf("inum not reused (%d vs %d)", f2.Inum(), f1.Inum())
		}
		if v2 := fs.Imap(f2.Inum()).Version; v2 <= v1 {
			t.Fatalf("version not bumped on reuse: %d <= %d", v2, v1)
		}
	})
}

func TestRename(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		data := pattern(3, 1000)
		writeFile(t, p, fs, "/old", data)
		if err := fs.Mkdir(p, "/dir"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(p, "/old", "/dir/new"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/old"); !errors.Is(err, ErrNotFound) {
			t.Fatal("old name still resolves")
		}
		f, err := fs.Open(p, "/dir/new")
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("content lost in rename")
		}
		// Same-dir rename.
		if err := fs.Rename(p, "/dir/new", "/dir/newer"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/dir/newer"); err != nil {
			t.Fatal(err)
		}
		// Destination exists.
		writeFile(t, p, fs, "/other", pattern(4, 10))
		if err := fs.Rename(p, "/other", "/dir/newer"); !errors.Is(err, ErrExists) {
			t.Fatalf("rename onto existing: want ErrExists, got %v", err)
		}
	})
}

func TestTruncate(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		data := pattern(5, 20*BlockSize)
		f := writeFile(t, p, e.fs, "/f", data)
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(p, 5*BlockSize+100); err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size(p)
		if sz != 5*BlockSize+100 {
			t.Fatalf("size = %d", sz)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p, f)
		if !bytes.Equal(got, data[:5*BlockSize+100]) {
			t.Fatal("truncated content wrong")
		}
		// Extending writes after truncate read zeroes in the gap.
		if _, err := f.WriteAt(p, []byte{1}, 8*BlockSize); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 10)
		if _, err := f.ReadAt(p, buf, 6*BlockSize); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("stale data after truncate+extend")
			}
		}
		// So does the tail of the block the truncate cut.
		tail := make([]byte, BlockSize-100)
		if _, err := f.ReadAt(p, tail, 5*BlockSize+100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatal("the cut block's tail kept its old bytes after truncate+extend")
		}
	})
}

func TestPersistenceAcrossRemount(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	data := pattern(6, 17*BlockSize+55)
	e.run(t, func(p *sim.Proc) {
		writeFile(t, p, e.fs, "/keep", data)
		if err := e.fs.Mkdir(p, "/d"); err != nil {
			t.Fatal(err)
		}
		writeFile(t, p, e.fs, "/d/nested", pattern(7, 300))
		if err := e.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	// Remount from the same media.
	e.run(t, func(p *sim.Proc) {
		fs2, err := Mount(p, DiskDevice{e.disk}, e.amap, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		f, err := fs2.Open(p, "/keep")
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("data lost across remount")
		}
		ents, err := fs2.ReadDir(p, "/d")
		if err != nil || len(ents) != 1 || ents[0].Name != "nested" {
			t.Fatalf("directory lost: %v %v", ents, err)
		}
	})
}

func TestRollForwardRecoversPostCheckpointWrites(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	data := pattern(8, 9*BlockSize)
	e.run(t, func(p *sim.Proc) {
		writeFile(t, p, e.fs, "/before", pattern(1, 100))
		if err := e.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		// Post-checkpoint work, flushed to the log but NOT checkpointed.
		writeFile(t, p, e.fs, "/after", data)
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Crash: abandon the FS without checkpointing.
	})
	e.run(t, func(p *sim.Proc) {
		fs2, err := Mount(p, DiskDevice{e.disk}, e.amap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs2.Open(p, "/after")
		if err != nil {
			t.Fatalf("roll-forward lost /after: %v", err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("rolled-forward data wrong")
		}
		fOld, err := fs2.Open(p, "/before")
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, fOld); !bytes.Equal(got, pattern(1, 100)) {
			t.Fatal("pre-checkpoint data wrong")
		}
	})
}

func TestRecoveryIgnoresUnsyncedData(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		writeFile(t, p, e.fs, "/durable", pattern(1, 100))
		if err := e.fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
		// Written only to the buffer cache: lost by the crash.
		f, err := e.fs.Create(p, "/volatile")
		if err != nil {
			t.Fatal(err)
		}
		small := []byte("tiny") // too small to trigger a segment write
		if _, err := f.WriteAt(p, small, 0); err != nil {
			t.Fatal(err)
		}
	})
	e.run(t, func(p *sim.Proc) {
		fs2, err := Mount(p, DiskDevice{e.disk}, e.amap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs2.Open(p, "/durable"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs2.Open(p, "/volatile"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unsynced file survived crash: %v", err)
		}
	})
}

func TestWriteIsSequentialLog(t *testing.T) {
	// LFS's defining property: random-frame replacement writes go to the
	// log sequentially and are therefore much faster than random reads
	// (Table 2: 1 MB random write 749 KB/s vs random read 154 KB/s).
	e := newEnv(t, 256, 64, Options{MaxInodes: 128, BufferBytes: 8 << 20})
	var readTime, writeTime sim.Time
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/obj", pattern(1, 1000*BlockSize))
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(99)
		buf := make([]byte, BlockSize)
		t0 := p.Now()
		for i := 0; i < 100; i++ {
			if _, err := f.ReadAt(p, buf, int64(rng.Intn(1000))*BlockSize); err != nil {
				t.Fatal(err)
			}
			if err := e.fs.FlushCaches(p); err != nil {
				t.Fatal(err)
			}
		}
		readTime = p.Now() - t0
		t0 = p.Now()
		for i := 0; i < 100; i++ {
			if _, err := f.WriteAt(p, buf, int64(rng.Intn(1000))*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		writeTime = p.Now() - t0
	})
	if writeTime*2 >= readTime {
		t.Fatalf("random writes (%v) should be far faster than random cold reads (%v)", writeTime, readTime)
	}
}

func TestSeguseAccounting(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/f", pattern(1, 10*BlockSize))
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		var live uint32
		for s := e.fs.ReservedSegs(); s < e.fs.amap.DiskSegs(); s++ {
			live += e.fs.SegUsage(addr.SegNo(s)).LiveBytes
		}
		// At least the file's 10 blocks plus metadata must be live.
		if live < 10*BlockSize {
			t.Fatalf("live bytes %d < file size", live)
		}
		// Overwriting the file should not grow live bytes unboundedly.
		for i := 0; i < 5; i++ {
			if _, err := f.WriteAt(p, pattern(byte(i), 10*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			if err := e.fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		var live2 uint32
		for s := e.fs.ReservedSegs(); s < e.fs.amap.DiskSegs(); s++ {
			live2 += e.fs.SegUsage(addr.SegNo(s)).LiveBytes
		}
		if live2 > live+6*BlockSize+2*uint32(e.fs.Stats().PartialSegs)*BlockSize {
			t.Fatalf("live bytes grew from %d to %d after overwrites", live, live2)
		}
	})
}

func TestStatAndTimes(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/f", pattern(1, 100))
		fi, err := e.fs.Stat(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size != 100 || fi.Type != TypeFile {
			t.Fatalf("stat = %+v", fi)
		}
		mt := fi.Mtime
		p.Sleep(1e9)
		buf := make([]byte, 10)
		if _, err := f.ReadAt(p, buf, 0); err != nil {
			t.Fatal(err)
		}
		fi2, _ := e.fs.Stat(p, "/f")
		if fi2.Atime <= fi.Atime {
			t.Fatal("atime not advanced by read")
		}
		if fi2.Mtime != mt {
			t.Fatal("mtime changed by read")
		}
	})
}

func TestWalkDoesNotTouchAtimes(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		writeFile(t, p, e.fs, "/f", pattern(1, 100))
		before, _ := e.fs.Stat(p, "/f")
		p.Sleep(1e9)
		n := 0
		if err := e.fs.Walk(p, "/", func(path string, fi FileInfo) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if n != 2 { // root + file
			t.Fatalf("walked %d nodes, want 2", n)
		}
		after, _ := e.fs.Stat(p, "/f")
		if after.Atime != before.Atime {
			t.Fatal("walk perturbed file atime")
		}
	})
}

func TestOutOfInodes(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 8})
	e.run(t, func(p *sim.Proc) {
		var lastErr error
		for i := 0; i < 10; i++ {
			_, lastErr = e.fs.Create(p, "/f"+string(rune('a'+i)))
			if lastErr != nil {
				break
			}
		}
		if !errors.Is(lastErr, ErrNoInodes) {
			t.Fatalf("want ErrNoInodes, got %v", lastErr)
		}
	})
}

func TestFileTooBig(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		huge := int64(maxFileBlocks) * BlockSize
		if _, err := f.WriteAt(p, []byte{1}, huge); !errors.Is(err, ErrFileTooBig) {
			t.Fatalf("want ErrFileTooBig, got %v", err)
		}
	})
}

func TestManySmallFiles(t *testing.T) {
	e := newEnv(t, 32, 128, Options{MaxInodes: 600})
	e.run(t, func(p *sim.Proc) {
		const n = 500
		for i := 0; i < n; i++ {
			name := "/small" + itoa(i)
			writeFile(t, p, e.fs, name, pattern(byte(i), 100+i%300))
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 37 {
			f, err := e.fs.Open(p, "/small"+itoa(i))
			if err != nil {
				t.Fatalf("open %d: %v", i, err)
			}
			if got := readAll(t, p, f); !bytes.Equal(got, pattern(byte(i), 100+i%300)) {
				t.Fatalf("file %d corrupted", i)
			}
		}
	})
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestLargeWriteUnderCachePressure regresses two subtle buffer-cache bugs:
// eviction of a just-inserted (still clean) buffer before its creator could
// dirty it, and the dirty-parents fixpoint missing grandparents when a
// parent is created already-dirty. A single write much larger than the
// buffer cache, reaching into the double-indirect range, exercises both.
func TestLargeWriteUnderCachePressure(t *testing.T) {
	e := newEnv(t, 256, 64, Options{MaxInodes: 256, BufferBytes: 3200 * 1024})
	e.run(t, func(p *sim.Proc) {
		data := pattern(42, 5<<20) // 1280 blocks > 12+1024: double indirect
		f := writeFile(t, p, e.fs, "/pressure", data)
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p, f)
		if !bytes.Equal(got, data) {
			t.Fatal("large file corrupted under buffer-cache pressure")
		}
	})
}

func TestUsageAccounting(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		u0 := e.fs.Usage()
		if u0.DiskSegs != 64 || u0.InodesMax != 128 {
			t.Fatalf("geometry wrong: %+v", u0)
		}
		if u0.CleanSegs+u0.DirtySegs+u0.CacheSegs+u0.NoStoreSegs+u0.ReservedSegs != 64 {
			t.Fatalf("segment classes do not partition the disk: %+v", u0)
		}
		writeFile(t, p, e.fs, "/f", pattern(1, 40*BlockSize))
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		u1 := e.fs.Usage()
		if u1.LiveBytes <= u0.LiveBytes {
			t.Fatal("live bytes did not grow after write")
		}
		if u1.InodesUsed != u0.InodesUsed+1 {
			t.Fatalf("inode count wrong: %d -> %d", u0.InodesUsed, u1.InodesUsed)
		}
		if u1.CleanSegs >= u0.CleanSegs {
			t.Fatal("clean segments did not shrink")
		}
	})
}

func TestDeepDirectoryTree(t *testing.T) {
	e := newEnv(t, 32, 96, Options{MaxInodes: 256})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		path := ""
		for d := 0; d < 12; d++ {
			path = path + "/d" + itoa(d)
			if err := fs.Mkdir(p, path); err != nil {
				t.Fatalf("mkdir %s: %v", path, err)
			}
		}
		leaf := path + "/leaf"
		data := pattern(7, 3*BlockSize)
		writeFile(t, p, fs, leaf, data)
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(p, leaf)
		if err != nil {
			t.Fatalf("open deep leaf: %v", err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, data) {
			t.Fatal("deep leaf corrupted")
		}
		// Rename a middle directory and re-resolve.
		if err := fs.Rename(p, "/d0/d1", "/d0/renamed"); err != nil {
			t.Fatal(err)
		}
		moved := "/d0/renamed" + path[len("/d0/d1"):] + "/leaf"
		if _, err := fs.Open(p, moved); err != nil {
			t.Fatalf("open via renamed path %s: %v", moved, err)
		}
		if _, err := fs.Open(p, leaf); !errors.Is(err, ErrNotFound) {
			t.Fatal("old path still resolves after rename")
		}
	})
}

func TestLargeDirectorySpansBlocks(t *testing.T) {
	e := newEnv(t, 32, 128, Options{MaxInodes: 1024})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		if err := fs.Mkdir(p, "/big"); err != nil {
			t.Fatal(err)
		}
		const n = 600 // with ~20-byte names: several directory blocks
		for i := 0; i < n; i++ {
			name := "/big/entry-number-" + itoa(i)
			if _, err := fs.Create(p, name); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		ents, err := fs.ReadDir(p, "/big")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != n {
			t.Fatalf("directory lists %d entries, want %d", len(ents), n)
		}
		// Spot-check resolution and deletion from a multi-block dir.
		if _, err := fs.Open(p, "/big/entry-number-599"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(p, "/big/entry-number-0"); err != nil {
			t.Fatal(err)
		}
		ents, _ = fs.ReadDir(p, "/big")
		if len(ents) != n-1 {
			t.Fatalf("after delete: %d entries", len(ents))
		}
	})
}
