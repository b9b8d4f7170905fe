package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// Hit-under-miss: a reader waiting for a demand fetch does not hold the
// file system lock, so other readers are served meanwhile (DESIGN.md, "What
// the file-system lock covers").

// archive writes a file, migrates it and completes the migration, so the
// file owns its tertiary segments; with eject its lines leave the cache.
// The file's buffers are dropped either way, so a read goes to the device.
func archive(t *testing.T, p *sim.Proc, hl *HighLight, path string, data []byte, eject bool) *lfs.File {
	t.Helper()
	f := put(t, p, hl, path, data)
	if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
		t.Fatalf("migrate %s: %v", path, err)
	}
	if err := hl.CompleteMigration(p); err != nil {
		t.Fatalf("complete %s: %v", path, err)
	}
	if eject {
		for _, l := range hl.Cache.Lines() {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				t.Fatalf("eject %d: %v", l.Tag, err)
			}
		}
	}
	hl.FS.DropFileBuffers(p, f.Inum())
	return f
}

func readWhole(p *sim.Proc, f *lfs.File, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := f.ReadAt(p, buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// TestCachedReadOverlapsDemandFetch: a read of an uncached migrated file
// and a read of a cached one start together. The cached read is over before
// the fetch is (at the parent commit it queued for the lock behind the
// whole fetch).
func TestCachedReadOverlapsDemandFetch(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	cold, warm := pat(1, 10*lfs.BlockSize), pat(2, 10*lfs.BlockSize)
	var fc, fw *lfs.File
	e.run(t, func(p *sim.Proc) {
		fc = archive(t, p, e.hl, "/cold", cold, true)
		fw = archive(t, p, e.hl, "/warm", warm, false)
	})
	var fetchWait, warmTook, coldTook sim.Time
	e.hl.Svc.Notify = func(tag int, waited sim.Time, done bool) {
		if done {
			fetchWait = waited
		}
	}
	read := func(f *lfs.File, want []byte, took *sim.Time) func(*sim.Proc) {
		return func(p *sim.Proc) {
			t0 := p.Now()
			got, err := readWhole(p, f, len(want))
			*took = p.Now() - t0
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("read of inode %d: err %v, content ok %v", f.Inum(), err, bytes.Equal(got, want))
			}
		}
	}
	e.k.Go("cold-reader", read(fc, cold, &coldTook)) // first in line for the lock
	e.k.Go("warm-reader", read(fw, warm, &warmTook))
	e.k.Run()
	if fetchWait == 0 || coldTook < fetchWait {
		t.Fatalf("cold read took %v with a fetch wait of %v: it never demand-fetched", coldTook, fetchWait)
	}
	if warmTook >= fetchWait {
		t.Fatalf("cached read took %v, no less than the %v the other reader's fetch took: it waited out the miss", warmTook, fetchWait)
	}
	e.k.Stop()
}

// TestThrashingReadersBothFinish: one cache line, two readers of files on
// different tertiary segments, several segments each. Each fetch evicts the
// other reader's line; both reads complete with the right bytes (after a
// bounded number of restarts a reader waits holding the lock, see lfs).
func TestThrashingReadersBothFinish(t *testing.T) {
	e := newHL(t, 64, 1, 4, 16)
	a, b := pat(3, 40*lfs.BlockSize), pat(4, 40*lfs.BlockSize)
	var fa, fb *lfs.File
	e.run(t, func(p *sim.Proc) {
		fa = archive(t, p, e.hl, "/a", a, true)
		fb = archive(t, p, e.hl, "/b", b, true)
	})
	before := e.hl.Svc.Stats().Fetches
	for _, r := range []struct {
		f    *lfs.File
		want []byte
	}{{fa, a}, {fb, b}} {
		e.k.Go("reader", func(p *sim.Proc) {
			got, err := readWhole(p, r.f, len(r.want))
			if err != nil || !bytes.Equal(got, r.want) {
				t.Errorf("read of inode %d: err %v, content ok %v", r.f.Inum(), err, bytes.Equal(got, r.want))
			}
		})
	}
	e.k.Run()
	if n := e.hl.Svc.Stats().Fetches - before; n < 6 {
		t.Fatalf("%d fetches for two three-segment files through one line, want at least 6", n)
	}
	for _, l := range e.hl.Cache.Lines() {
		if l.Pins != 0 {
			t.Fatalf("line %d left with %d pins", l.Tag, l.Pins)
		}
	}
	e.k.Stop()
}

// TestDeadlineWhileParked: a request whose deadline passes while it waits
// for its fetch returns the context error, holds no lock (the next
// operation runs at once) and leaves no pin on the line when the fetch
// lands in the background.
func TestDeadlineWhileParked(t *testing.T) {
	e := newHL(t, 64, 8, 4, 16)
	data := pat(5, 10*lfs.BlockSize)
	var f *lfs.File
	e.run(t, func(p *sim.Proc) { f = archive(t, p, e.hl, "/f", data, true) })
	e.run(t, func(p *sim.Proc) {
		ctx := e.k.NewCtx(0)
		e.k.Go("deadline", func(dp *sim.Proc) { // as the front end's deadline timer does
			dp.Sleep(100 * time.Millisecond)
			ctx.Cancel(sim.ErrDeadlineExceeded)
		})
		restore := p.PushCtx(ctx)
		_, err := readWhole(p, f, len(data))
		restore()
		if !errors.Is(err, sim.ErrDeadlineExceeded) {
			t.Fatalf("read returned %v, want the deadline error", err)
		}
		t0 := p.Now()
		if _, err := e.hl.FS.Stat(p, "/"); err != nil || p.Now() != t0 {
			t.Fatalf("Stat after the expired read: err %v after %v, want no wait for the lock", err, p.Now()-t0)
		}
		p.Sleep(time.Minute) // the abandoned fetch completes
		if e.hl.Svc.Stats().Fetches == 0 || e.hl.Cache.Len() == 0 {
			t.Fatal("the abandoned fetch never landed")
		}
		for _, l := range e.hl.Cache.Lines() {
			if l.Pins != 0 {
				t.Fatalf("line %d left with %d pins", l.Tag, l.Pins)
			}
		}
		if got, err := readWhole(p, f, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read after the fetch landed: %v", err)
		}
	})
	e.k.Stop()
}

// TestReaderPinsItsLine: while a reader sleeps on the disk arm in the
// middle of reading a cache line, the line is pinned and is never the
// eviction victim; with that the only line, a concurrent demand fetch is
// deferred until the reader lets go, not failed.
func TestReaderPinsItsLine(t *testing.T) {
	e := newHL(t, 64, 1, 4, 16)
	cold, warm := pat(6, 10*lfs.BlockSize), pat(7, 10*lfs.BlockSize)
	var fc, fw *lfs.File
	e.run(t, func(p *sim.Proc) {
		fc = archive(t, p, e.hl, "/cold", cold, true)
		fw = archive(t, p, e.hl, "/warm", warm, false)
	})
	reading, sawPinned := true, false
	e.k.Go("warm-reader", func(p *sim.Proc) {
		got, err := readWhole(p, fw, len(warm))
		reading = false
		if err != nil || !bytes.Equal(got, warm) {
			t.Errorf("cached read: err %v, content ok %v", err, bytes.Equal(got, warm))
		}
	})
	e.k.Go("cold-reader", func(p *sim.Proc) {
		got, err := readWhole(p, fc, len(cold))
		if err != nil || !bytes.Equal(got, cold) {
			t.Errorf("demand-fetched read: err %v, content ok %v", err, bytes.Equal(got, cold))
		}
	})
	e.k.Go("probe", func(p *sim.Proc) {
		for reading {
			for _, l := range e.hl.Cache.Lines() {
				if l.Pins > 0 {
					sawPinned = true
					if v := e.hl.Cache.Victim(); v != nil {
						t.Errorf("victim %d chosen while the only line is pinned", v.Tag)
					}
				}
			}
			p.Sleep(time.Millisecond)
		}
	})
	e.k.Run()
	if !sawPinned {
		t.Fatal("the probe never saw the reader's pin")
	}
	if s := e.hl.Svc.Stats(); s.Fetches != 1 || s.FetchFaults != 0 {
		t.Fatalf("%d fetches, %d failed, want the deferred fetch to run once", s.Fetches, s.FetchFaults)
	}
	e.k.Stop()
}

// TestStagerWakesWhenTheLastReaderLeaves: the only line carries a reader's
// pin and one that is not a reader's (the tertiary cleaner takes its own,
// directly). The stager waits for the reader; when the reader lets go the
// line is still pinned, and the stager must learn that nothing is left to
// wait for and give up as it does without readers, not sleep on with nobody
// left to wake it.
func TestStagerWakesWhenTheLastReaderLeaves(t *testing.T) {
	e := newHL(t, 64, 1, 4, 16)
	e.run(t, func(p *sim.Proc) { archive(t, p, e.hl, "/warm", pat(8, 10*lfs.BlockSize), false) })
	line := e.hl.Cache.Lines()[0]
	line.Pins++ // as cleanTertSegment holds the line it re-stages from
	e.hl.Svc.Pin(line)
	start := e.k.Now()
	var err error
	var gaveUp sim.Time
	e.k.Go("stager", func(p *sim.Proc) {
		err = e.hl.ensureStaging(p)
		gaveUp = p.Now() - start
	})
	e.k.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Second)
		e.hl.Svc.Unpin(p, line)
	})
	e.k.Run() // a stager left asleep is a deadlock, which Run panics on
	if err == nil || !strings.Contains(err.Error(), "no cache line available") || gaveUp != sim.Time(time.Second) {
		t.Fatalf("ensureStaging returned %v after %v, want no line available once the reader left at 1s", err, gaveUp)
	}
	e.k.Stop()
}
