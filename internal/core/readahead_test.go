package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// Read-ahead into tertiary storage: a sequential reader's next segments are
// fetched in the background (lfs.Fetcher.ReadAhead, the block map's
// tertiary.Service.FetchAhead) while it reads the one it has.

// scan reads f front to back in 8 KB reads, as wl.SequentialScan does.
func scan(p *sim.Proc, f *lfs.File, n int) ([]byte, error) {
	got, buf := make([]byte, 0, n), make([]byte, 2*lfs.BlockSize)
	for off := 0; off < n; off += len(buf) {
		m, err := f.ReadAt(p, buf, int64(off))
		got = append(got, buf[:m]...)
		if err != nil && err != io.EOF {
			return got, err
		}
	}
	return got, nil
}

// tertSegs counts the tertiary segments holding f's blocks.
func tertSegs(t *testing.T, p *sim.Proc, hl *HighLight, f *lfs.File) int {
	t.Helper()
	refs, err := hl.FS.FileBlockRefs(p, f.Inum())
	if err != nil {
		t.Fatal(err)
	}
	segs := map[addr.SegNo]bool{}
	for _, r := range refs {
		if s := hl.Amap.SegOf(r.Addr); hl.Amap.IsTertiarySeg(s) {
			segs[s] = true
		}
	}
	return len(segs)
}

// TestSequentialScanWaitsOnce: a front-to-back scan of a migrated file over
// several tertiary segments starts one fetch on demand, its first segment's.
// Every other segment it reads, its indirect block's too, is cached or on its
// way when the scan gets there, so each is a background fetch the scan at
// most joins.
func TestSequentialScanWaitsOnce(t *testing.T) {
	e := newHL(t, 64, 16, 4, 16)
	data := pat(31, 100*lfs.BlockSize)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := archive(t, p, hl, "/seq", data, false)
		segs := tertSegs(t, p, hl, f)
		if segs < 4 {
			t.Fatalf("file spans %d tertiary segments, want at least 4", segs)
		}
		if _, err := hl.Svc.EjectAll(); err != nil {
			t.Fatal(err)
		}
		hl.FS.DropFileBuffers(p, f.Inum())
		before := hl.Svc.Stats()
		got, err := scan(p, f, len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("scan: err %v, content ok %v", err, bytes.Equal(got, data))
		}
		st := hl.Svc.Stats()
		fetches, ahead := st.Fetches-before.Fetches, st.Prefetches-before.Prefetches
		if fetches != int64(segs) || fetches-ahead != 1 {
			t.Fatalf("scan of %d segments: %d fetches, %d of them background, want %d and %d",
				segs, fetches, ahead, segs, segs-1)
		}
		if u := hl.Cache.Stats().PrefetchUnused; u != 0 {
			t.Fatalf("%d prefetched lines evicted unread", u)
		}
	})
	e.k.Stop()
}

// TestScatteredReadsFetchNothingAhead: 16-block reads at scattered offsets
// of a migrated file, and two back-to-back 16-block reads away from block 0,
// start no background fetch.
func TestScatteredReadsFetchNothingAhead(t *testing.T) {
	e := newHL(t, 64, 16, 4, 16)
	const nblocks = 100
	data := pat(32, nblocks*lfs.BlockSize)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := archive(t, p, hl, "/rand", data, true)
		rng := sim.NewRNG(3)
		offs := []int64{0}
		for range 12 {
			offs = append(offs, rng.Int63n(nblocks-16))
		}
		offs = append(offs, 40, 56)
		buf := make([]byte, 16*lfs.BlockSize)
		for _, lbn := range offs {
			off := lbn * lfs.BlockSize
			if _, err := f.ReadAt(p, buf, off); err != nil || !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
				t.Fatalf("read at block %d: err %v", lbn, err)
			}
		}
		p.Sleep(time.Minute)
		if n := hl.Svc.Stats().Prefetches; n != 0 {
			t.Fatalf("scattered reads started %d background fetches", n)
		}
	})
	e.k.Stop()
}

// TestPrefetchedLineOutlivesItsReader: a scan that stops after its first few
// reads leaves fetches on their way; when they land, no reader is there, so
// their lines hold no pin and stay evictable, and each one evicted unread
// counts in cache.prefetch_unused.
func TestPrefetchedLineOutlivesItsReader(t *testing.T) {
	e := newHL(t, 64, 16, 4, 16)
	data := pat(33, 100*lfs.BlockSize)
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		f := archive(t, p, hl, "/stop", data, true)
		buf := make([]byte, 2*lfs.BlockSize)
		for off := int64(0); off < 4*int64(len(buf)); off += int64(len(buf)) {
			if _, err := f.ReadAt(p, buf, off); err != nil {
				t.Fatal(err)
			}
		}
		ahead := hl.Svc.Stats().Prefetches
		if ahead == 0 {
			t.Fatal("the scan started no background fetch")
		}
		p.Sleep(5 * time.Minute) // every fetch has landed
		if st := hl.Svc.Stats(); st.Fetches != 1+ahead {
			t.Fatalf("%d fetches landed, want the demand fetch and %d background ones", st.Fetches, ahead)
		}
		for _, l := range hl.Cache.Lines() {
			if l.Pins != 0 || !hl.Cache.Evictable(l) {
				t.Fatalf("line of segment %d: %d pins, evictable %v", l.Tag, l.Pins, hl.Cache.Evictable(l))
			}
		}
		unused := hl.Cache.Stats().PrefetchUnused
		if _, err := hl.Svc.EjectAll(); err != nil {
			t.Fatal(err)
		}
		// The scan read the first segment and none of the ones ahead.
		if u := hl.Cache.Stats().PrefetchUnused - unused; u != ahead {
			t.Fatalf("%d prefetched lines evicted unread, want %d", u, ahead)
		}
	})
	e.k.Stop()
}
