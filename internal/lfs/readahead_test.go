package lfs

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// Read-ahead into tertiary storage: readAtLocked asks the device's Fetcher
// for the segments one and two segments ahead of a sequential reader, once
// for each segment the reader enters. tertDev records what it is asked for.

// segsOf maps each block of f to its segment, and names the segments of its
// data blocks.
func segsOf(t *testing.T, p *sim.Proc, fs *FS, f *File) (map[int32]addr.SegNo, map[addr.SegNo]bool) {
	t.Helper()
	refs, err := fs.FileBlockRefs(p, f.Inum())
	if err != nil {
		t.Fatal(err)
	}
	at, data := map[int32]addr.SegNo{}, map[addr.SegNo]bool{}
	for _, r := range refs {
		at[r.Lbn] = fs.amap.SegOf(r.Addr)
		if r.Lbn >= 0 {
			data[fs.amap.SegOf(r.Addr)] = true
		}
	}
	return at, data
}

// TestReadAheadOncePerSegment: a front-to-back scan in two-block reads of a
// file whose data is not buffered asks for nothing on its first read, asks for
// every later segment of the file before it reads a block there, and asks at
// most aheadDepth times for each segment it enters.
func TestReadAheadOncePerSegment(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		const nblocks = 200
		f := writeFile(t, p, fs, "/f", pattern(5, nblocks*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		fs.DropFileBuffers(p, f.Inum())
		at, data := segsOf(t, p, fs, f) // reads the indirect block back, not the data
		if len(data) < 6 {
			t.Fatalf("file spans %d segments, want at least 6", len(data))
		}
		asked := map[addr.SegNo]bool{}
		buf := make([]byte, 2*BlockSize)
		for lbn := int32(0); lbn < nblocks; lbn += 2 {
			if _, err := f.ReadAt(p, buf, int64(lbn)*BlockSize); err != nil {
				t.Fatal(err)
			}
			if lbn == 0 && len(td.ahead) > 0 {
				t.Fatalf("a lone read of block 0 asked for segments %v", td.ahead)
			}
			for _, s := range td.ahead {
				asked[s] = true
			}
			if s := at[lbn]; lbn > 0 && s != at[0] && !asked[s] {
				t.Fatalf("block %d read from segment %d, which was never asked for ahead (asked: %v)", lbn, s, td.ahead)
			}
		}
		for s := range asked {
			if !data[s] {
				t.Errorf("asked for segment %d, which holds no block of the file", s)
			}
		}
		if len(td.ahead) > aheadDepth*len(data) {
			t.Errorf("%d requests over %d segments, want at most %d a segment: %v", len(td.ahead), len(data), aheadDepth, td.ahead)
		}
	})
	e.k.Stop()
}

// TestReadAheadNeedsARun: 16-block reads at scattered offsets (block 0 among
// them) and two back-to-back 16-block reads away from block 0 ask for
// nothing: a run shorter than aheadRun blocks is not sequential enough to
// spend a tertiary fetch on.
func TestReadAheadNeedsARun(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		f := writeFile(t, p, fs, "/f", pattern(6, 400*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		fs.DropFileBuffers(p, f.Inum())
		buf := make([]byte, 16*BlockSize)
		rng := sim.NewRNG(7)
		offs := []int64{0}
		for range 20 {
			offs = append(offs, rng.Int63n(400-16))
		}
		offs = append(offs, 100, 116) // back to back: a run of 32 blocks
		for _, lbn := range offs {
			if _, err := f.ReadAt(p, buf, lbn*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if len(td.ahead) > 0 {
			t.Fatalf("reads without a run asked for segments %v", td.ahead)
		}
	})
	e.k.Stop()
}

// TestReadAheadFromDeepInASegment: a run that first qualifies at the last
// block of a segment asks for the segment right after it, not the one after
// that: the blocks asked for are counted from where the segment being read
// starts, not from the reader's place in it.
func TestReadAheadFromDeepInASegment(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		const nblocks = 200
		f := writeFile(t, p, fs, "/f", pattern(8, nblocks*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		fs.DropFileBuffers(p, f.Inum())
		at, _ := segsOf(t, p, fs, f)
		last := int32(100) // the last block of block 100's segment
		for at[last+1] == at[100] {
			last++
		}
		buf := make([]byte, 2*BlockSize)
		for lbn := last - aheadRun + 1; lbn <= last; lbn += 2 { // the run reaches aheadRun at last
			if _, err := f.ReadAt(p, buf, int64(lbn)*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if want := at[last+1]; len(td.ahead) == 0 || td.ahead[0] != want {
			t.Fatalf("a run reaching %d blocks at block %d, the last of segment %d, asked for %v; want segment %d first",
				aheadRun, last, at[last], td.ahead, want)
		}
	})
	e.k.Stop()
}

// TestReadAheadSkipsBufferedBlocks: a scan of a file whose blocks are all in
// the buffer cache asks for nothing: the reader will not need their segments.
func TestReadAheadSkipsBufferedBlocks(t *testing.T) {
	e, td := newTertEnv(t, 32, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		const nblocks = 200
		f := writeFile(t, p, fs, "/f", pattern(9, nblocks*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2*BlockSize)
		for lbn := int32(0); lbn < nblocks; lbn += 2 {
			if _, err := f.ReadAt(p, buf, int64(lbn)*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if len(td.ahead) > 0 {
			t.Fatalf("a scan of buffered blocks asked for segments %v", td.ahead)
		}
	})
	e.k.Stop()
}
