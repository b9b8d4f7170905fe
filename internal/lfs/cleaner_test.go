package lfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
)

func TestCleanerReclaimsDeadSegments(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		f := writeFile(t, p, fs, "/churn", pattern(1, 20*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Overwrite repeatedly to create dead segments.
		for i := 0; i < 8; i++ {
			if _, err := f.WriteAt(p, pattern(byte(i+2), 20*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		before := fs.CleanSegs()
		segs := fs.SelectCleanable(6)
		if len(segs) == 0 {
			t.Fatal("no cleanable segments after churn")
		}
		if _, err := fs.CleanSegments(p, segs); err != nil {
			t.Fatal(err)
		}
		if fs.CleanSegs() <= before {
			t.Fatalf("cleaning did not increase clean segments: %d -> %d", before, fs.CleanSegs())
		}
		// Data intact after cleaning.
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, pattern(9, 20*BlockSize)) {
			t.Fatal("cleaning corrupted live data")
		}
	})
}

func TestCleanerPreservesMultipleFiles(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		files := map[string][]byte{}
		for i := 0; i < 10; i++ {
			name := "/f" + itoa(i)
			data := pattern(byte(i), 3*BlockSize+i*17)
			writeFile(t, p, fs, name, data)
			files[name] = data
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Delete every other file, clean everything cleanable.
		for i := 0; i < 10; i += 2 {
			if err := fs.Remove(p, "/f"+itoa(i)); err != nil {
				t.Fatal(err)
			}
			delete(files, "/f"+itoa(i))
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.CleanSegments(p, fs.SelectCleanable(0)); err != nil {
			t.Fatal(err)
		}
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		for name, want := range files {
			f, err := fs.Open(p, name)
			if err != nil {
				t.Fatalf("open %s after clean: %v", name, err)
			}
			if got := readAll(t, p, f); !bytes.Equal(got, want) {
				t.Fatalf("%s corrupted by cleaner", name)
			}
		}
	})
}

func TestEmergencyCleanAvoidsNoSpace(t *testing.T) {
	// Tiny FS: keep overwriting a file larger than half the disk; without
	// cleaning this runs out of segments.
	e := newEnv(t, 32, 24, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		fs.AttachCleaner(2, 4) // wires EmergencyClean
		f := writeFile(t, p, fs, "/f", pattern(1, 60*BlockSize))
		for i := 0; i < 10; i++ {
			if _, err := f.WriteAt(p, pattern(byte(i), 60*BlockSize), 0); err != nil {
				t.Fatalf("overwrite %d: %v", i, err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
		}
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, f); !bytes.Equal(got, pattern(9, 60*BlockSize)) {
			t.Fatal("data corrupted under space pressure")
		}
		if fs.Stats().SegsCleaned == 0 {
			t.Fatal("emergency cleaner never ran")
		}
	})
}

func TestNoSpaceWithoutCleaner(t *testing.T) {
	e := newEnv(t, 32, 8, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		f, err := e.fs.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		var lastErr error
		for i := 0; i < 40 && lastErr == nil; i++ {
			_, lastErr = f.WriteAt(p, pattern(byte(i), 32*BlockSize), int64(i)*32*BlockSize)
			if lastErr == nil {
				lastErr = e.fs.Sync(p)
			}
		}
		if !errors.Is(lastErr, ErrNoSpace) {
			t.Fatalf("want ErrNoSpace, got %v", lastErr)
		}
	})
}

func TestCleanerDaemonKeepsCleanPool(t *testing.T) {
	e := newEnv(t, 32, 32, Options{MaxInodes: 64})
	daemon := e.fs.AttachCleaner(24, 28)
	e.k.GoDaemon("cleaner", daemon)
	e.run(t, func(p *sim.Proc) {
		f := writeFile(t, p, e.fs, "/f", pattern(1, 40*BlockSize))
		for i := 0; i < 12; i++ {
			if _, err := f.WriteAt(p, pattern(byte(i), 40*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			if err := e.fs.Sync(p); err != nil {
				t.Fatal(err)
			}
			p.Sleep(3e9) // give the daemon a chance
		}
	})
	if e.fs.Stats().SegsCleaned == 0 {
		t.Fatal("daemon never cleaned")
	}
	e.k.Stop()
}

// TestBmapvLiveness checks the liveness test of §6.7's lfs_bmapv, which the
// cleaner and Migratev apply to every block they would move.
func TestBmapvLiveness(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		bmapv := func(refs []BlockRef) []bool {
			fs.lock.Acquire(p)
			defer fs.lock.Release(p)
			live := make([]bool, len(refs))
			for i, r := range refs {
				ok, err := fs.refLiveLocked(p, r)
				if err != nil {
					t.Fatal(err)
				}
				live[i] = ok
			}
			return live
		}
		f := writeFile(t, p, fs, "/f", pattern(1, 5*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		refs, err := fs.FileBlockRefs(p, f.Inum())
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 5 {
			t.Fatalf("got %d refs, want 5", len(refs))
		}
		live := bmapv(refs)
		for i, l := range live {
			if !l {
				t.Fatalf("fresh ref %d not live", i)
			}
		}
		// Overwrite block 2: its old ref dies.
		if _, err := f.WriteAt(p, pattern(9, BlockSize), 2*BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		live = bmapv(refs)
		if live[2] {
			t.Fatal("overwritten block still reported live")
		}
		if !live[0] || !live[4] {
			t.Fatal("untouched blocks reported dead")
		}
		// Remove the file: everything dies.
		if err := fs.Remove(p, "/f"); err != nil {
			t.Fatal(err)
		}
		live = bmapv(refs)
		for i, l := range live {
			if l {
				t.Fatalf("ref %d live after unlink", i)
			}
		}
	})
}

func TestReadSegmentParsesLog(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		writeFile(t, p, fs, "/f", pattern(1, 6*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		seg := addr.SegNo(fs.ReservedSegs())
		sc, err := fs.ReadSegment(p, seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Psegs) == 0 {
			t.Fatal("no partial segments parsed")
		}
		foundData, foundIno := false, false
		for _, r := range sc.Blocks {
			if r.Lbn >= 0 {
				foundData = true
			}
		}
		if len(sc.Inodes) > 0 {
			foundIno = true
		}
		if !foundData || !foundIno {
			t.Fatalf("segment parse incomplete: data=%v inodes=%v", foundData, foundIno)
		}
	})
}

func TestCleanActiveSegmentRejected(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		writeFile(t, p, e.fs, "/f", pattern(1, BlockSize))
		if err := e.fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Find the active segment.
		var active addr.SegNo
		for s := e.fs.ReservedSegs(); s < e.fs.amap.DiskSegs(); s++ {
			if e.fs.SegUsage(addr.SegNo(s)).Flags&SegActive != 0 {
				active = addr.SegNo(s)
			}
		}
		if _, err := e.fs.CleanSegments(p, []addr.SegNo{active}); err == nil {
			t.Fatal("cleaning the active segment should fail")
		}
	})
}

// TestRandomizedModelCheck drives the FS with random operations mirrored
// against an in-memory model, then verifies every file byte-for-byte —
// through cache flushes, cleaning, and a remount.
func TestRandomizedModelCheck(t *testing.T) {
	e := newEnv(t, 32, 96, Options{MaxInodes: 256, BufferBytes: 1 << 20})
	rng := sim.NewRNG(2024)
	model := map[string][]byte{}
	names := []string{}
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		fs.AttachCleaner(4, 8)
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(100); {
			case r < 35 || len(names) == 0: // create
				if len(names) >= 40 {
					continue
				}
				name := "/m" + itoa(op)
				sz := rng.Intn(6*BlockSize) + 1
				data := make([]byte, sz)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				if _, err := fs.Create(p, name); err != nil {
					t.Fatal(err)
				}
				f, _ := fs.Open(p, name)
				if _, err := f.WriteAt(p, data, 0); err != nil {
					t.Fatal(err)
				}
				model[name] = data
				names = append(names, name)
			case r < 65: // overwrite a range
				name := names[rng.Intn(len(names))]
				cur := model[name]
				off := rng.Intn(len(cur) + BlockSize)
				n := rng.Intn(2*BlockSize) + 1
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				f, err := fs.Open(p, name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(p, data, int64(off)); err != nil {
					t.Fatal(err)
				}
				if off+n > len(cur) {
					grown := make([]byte, off+n)
					copy(grown, cur)
					cur = grown
				}
				copy(cur[off:], data)
				model[name] = cur
			case r < 80: // read + verify one file
				name := names[rng.Intn(len(names))]
				f, err := fs.Open(p, name)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(model[name]))
				if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model[name]) {
					t.Fatalf("op %d: %s diverged from model", op, name)
				}
			case r < 90: // delete
				i := rng.Intn(len(names))
				name := names[i]
				if err := fs.Remove(p, name); err != nil {
					t.Fatal(err)
				}
				delete(model, name)
				names = append(names[:i], names[i+1:]...)
			case r < 95: // sync or flush caches
				if err := fs.FlushCaches(p); err != nil {
					t.Fatal(err)
				}
			default: // clean
				segs := fs.SelectCleanable(2)
				if len(segs) > 0 {
					if _, err := fs.CleanSegments(p, segs); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := fs.Checkpoint(p); err != nil {
			t.Fatal(err)
		}
	})
	// Remount and verify everything.
	e.run(t, func(p *sim.Proc) {
		fs2, err := Mount(p, DiskDevice{e.disk}, e.amap, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range model {
			f, err := fs2.Open(p, name)
			if err != nil {
				t.Fatalf("open %s after remount: %v", name, err)
			}
			got := make([]byte, len(want))
			if _, err := f.ReadAt(p, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s diverged after remount", name)
			}
		}
	})
}

// TestSelectCleanablePrefersEmptyAndOld verifies the cost-benefit ordering:
// an (almost) empty old segment ranks above a mostly-live young one.
func TestSelectCleanablePrefersEmptyAndOld(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 128})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		// Old, now-dead data.
		dead := writeFile(t, p, fs, "/dead", pattern(1, 30*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		_ = dead
		p.Sleep(time.Hour)
		// Fresh, live data in later segments.
		writeFile(t, p, fs, "/live", pattern(2, 30*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// Kill the old data.
		if err := fs.Remove(p, "/dead"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		order := fs.SelectCleanable(0)
		if len(order) < 2 {
			t.Fatalf("expected several cleanable segments, got %d", len(order))
		}
		first := fs.SegUsage(order[0])
		last := fs.SegUsage(order[len(order)-1])
		if first.LiveBytes > last.LiveBytes {
			t.Fatalf("cost-benefit ordering wrong: first has %d live, last %d", first.LiveBytes, last.LiveBytes)
		}
	})
}
