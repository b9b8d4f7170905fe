package ffs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

type env struct {
	k    *sim.Kernel
	disk *dev.Disk
	fs   *FS
}

func newEnv(t *testing.T, blocks int64) *env {
	t.Helper()
	k := sim.NewKernel()
	disk := dev.NewDisk(k, dev.RZ57, blocks, nil)
	e := &env{k: k, disk: disk}
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, disk, Options{MaxInodes: 256})
		if err != nil {
			t.Fatal(err)
		}
		e.fs = fs
	})
	return e
}

func (e *env) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	e.k.RunProc(fn)
}

func pat(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(tag)*41+i) ^ byte(i>>7)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t, 4096)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/a")
		if err != nil {
			t.Fatal(err)
		}
		data := pat(1, 10*blockSize+100)
		if _, err := f.WriteAt(p, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip failed")
		}
	})
}

func TestLargeFileIndirect(t *testing.T) {
	e := newEnv(t, 3000)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/big")
		if err != nil {
			t.Fatal(err)
		}
		data := pat(2, (ndirect+ptrsPerBlock+40)*blockSize) // into double indirect
		if _, err := f.WriteAt(p, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("indirect file corrupted")
		}
	})
}

func TestSequentialAllocationIsContiguous(t *testing.T) {
	e := newEnv(t, 4096)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/seq")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, pat(3, 12*blockSize), 0); err != nil {
			t.Fatal(err)
		}
		ino := e.fs.inodes[f.inum]
		for i := 1; i < 12; i++ {
			if ino.direct[i] != ino.direct[i-1]+1 {
				t.Fatalf("blocks %d,%d not contiguous: %d %d", i-1, i, ino.direct[i-1], ino.direct[i])
			}
		}
	})
}

func TestClusteredReadsFewerDeviceOps(t *testing.T) {
	e := newEnv(t, 8192)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/c")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, pat(4, 64*blockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		before := e.disk.Stats().Reads
		buf := make([]byte, 64*blockSize)
		if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		reads := e.disk.Stats().Reads - before
		// 64 contiguous blocks with 16-block clustering: ~4-5 data reads
		// (plus metadata).
		if reads > 8 {
			t.Fatalf("sequential 64-block read used %d device reads; clustering broken", reads)
		}
	})
}

func TestOverwriteInPlace(t *testing.T) {
	e := newEnv(t, 4096)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, pat(5, 8*blockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		before := e.fs.inodes[f.inum].direct[3]
		if _, err := f.WriteAt(p, pat(6, blockSize), 3*blockSize); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		after := e.fs.inodes[f.inum].direct[3]
		if before != after {
			t.Fatalf("FFS must overwrite in place: block moved %d -> %d", before, after)
		}
	})
}

func TestDirectoriesAndErrors(t *testing.T) {
	e := newEnv(t, 4096)
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		if _, err := fs.Create(p, "/x"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/x"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Open(p, "/y"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
		if _, err := fs.Create(p, "/x"); !errors.Is(err, ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
		if _, err := fs.Create(p, "/x/z"); !errors.Is(err, ErrNotDir) {
			t.Fatalf("want ErrNotDir, got %v", err)
		}
		if _, err := fs.Open(p, "/"); !errors.Is(err, ErrIsDir) {
			t.Fatalf("want ErrIsDir, got %v", err)
		}
	})
}

func TestNoSpace(t *testing.T) {
	e := newEnv(t, 256)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		var lastErr error
		for i := 0; i < 300 && lastErr == nil; i++ {
			_, lastErr = f.WriteAt(p, pat(byte(i), blockSize), int64(i)*blockSize)
		}
		if !errors.Is(lastErr, ErrNoSpace) {
			t.Fatalf("want ErrNoSpace, got %v", lastErr)
		}
	})
}

func TestSparseReadZeros(t *testing.T) {
	e := newEnv(t, 4096)
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/s")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, []byte{42}, 10*blockSize); err != nil {
			t.Fatal(err)
		}
		if err := e.fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blockSize)
		if _, err := f.ReadAt(p, buf, 2*blockSize); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("hole not zero")
			}
		}
	})
}
