package core

import (
	"bytes"
	"testing"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestRereadAfterEvictionWaitsOnce: a migrated file's indirect block lives
// in the tertiary segment after the one with the data it maps, so a cold
// read behind the direct blocks costs two demand fetches, one after the
// other. Once the file has been read, the buffer cache keeps that block in
// its pointer-block reserve when everything else of the file is pushed out:
// the next cold read waits for the data's segment only (for both, without
// the reserve). FlushCaches empties the reserve too.
func TestRereadAfterEvictionWaitsOnce(t *testing.T) {
	e := newHL(t, 128, 8, 4, 16)
	data := pat(1, 20*lfs.BlockSize)   // blocks 0-14 fill one 16-block segment, 15-19 and the indirect block go to the next
	other := pat(2, 300*lfs.BlockSize) // more than the 1 MB buffer cache
	e.run(t, func(p *sim.Proc) {
		hl := e.hl
		flood := put(t, p, hl, "/flood", other)
		f := archive(t, p, hl, "/f", data, true)
		refs, err := hl.FS.FileBlockRefs(p, f.Inum())
		if err != nil {
			t.Fatal(err)
		}
		segOf := map[int32]int{}
		for _, r := range refs {
			segOf[r.Lbn], _ = hl.Amap.TertIndex(hl.Amap.SegOf(r.Addr))
		}
		if segOf[lfs.LbnSingle] == segOf[12] || segOf[12] != segOf[14] {
			t.Fatalf("layout: blocks 12 and 14 in tertiary segments %d and %d, their pointer block in %d; want the data together, the pointer block elsewhere",
				segOf[12], segOf[14], segOf[lfs.LbnSingle])
		}
		// coldRead ejects every line, reads block lbn and returns the demand
		// fetches and pointer-block waits that took.
		coldRead := func(lbn int64) (fetches, pointerWaits int64) {
			for _, l := range hl.Cache.Lines() {
				if err := hl.Svc.Eject(l.Tag); err != nil {
					t.Fatalf("eject %d: %v", l.Tag, err)
				}
			}
			f0, w0 := hl.Svc.Stats().Fetches, hl.FS.Stats().PointerWaits
			got := make([]byte, lfs.BlockSize)
			if _, err := f.ReadAt(p, got, lbn*lfs.BlockSize); err != nil || !bytes.Equal(got, data[lbn*lfs.BlockSize:][:lfs.BlockSize]) {
				t.Fatalf("read of block %d: err %v, content ok %v", lbn, err, err == nil)
			}
			return hl.Svc.Stats().Fetches - f0, hl.FS.Stats().PointerWaits - w0
		}
		flush := func() {
			if err := hl.FS.FlushCaches(p); err != nil {
				t.Fatal(err)
			}
		}

		flush()
		if n, w := coldRead(12); n != 2 || w != 1 {
			t.Fatalf("first read: %d fetches, %d pointer waits, want 2 and 1", n, w)
		}
		if got := get(t, p, flood); !bytes.Equal(got, other) {
			t.Fatal("flood file: wrong content")
		}
		hits := hl.FS.Stats().ReserveHits
		if n, w := coldRead(14); n != 1 || w != 0 {
			t.Fatalf("read after the buffer cache was flooded: %d fetches, %d pointer waits, want 1 and 0", n, w)
		}
		if got := hl.FS.Stats().ReserveHits - hits; got != 1 {
			t.Fatalf("%d reserve hits, want 1", got)
		}
		flush()
		if n, w := coldRead(13); n != 2 || w != 1 {
			t.Fatalf("read after FlushCaches: %d fetches, %d pointer waits, want 2 and 1", n, w)
		}
	})
}
