package tertiary

import (
	"bytes"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// readLine reads the cache line that starts at disk block blk.
func (e *env) readLine(t *testing.T, p *sim.Proc, blk int64) []byte {
	t.Helper()
	got := make([]byte, segBlocks*dev.BlockSize)
	if err := e.disk.ReadBlocks(p, blk, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFetchedLineAndMediumStayApart: a demand fetch shares the medium's
// segment image with its cache line, and neither side's later write reaches
// the other. A rewrite of the segment on the medium leaves the line as it
// was; a write into the line leaves the medium's segment as it was.
func TestFetchedLineAndMediumStayApart(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		full := func(b byte) []byte { return bytes.Repeat([]byte{b}, segBlocks*dev.BlockSize) }
		e.seed(t, p, 3, 0xAB)
		line, err := e.svc.DemandFetch(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		e.seed(t, p, 3, 0xCD) // the medium rewritten under the cached line
		if !bytes.Equal(e.readLine(t, p, int64(e.amap.BlockOf(line.DiskSeg, 0))), full(0xAB)) {
			t.Fatal("rewriting the medium's segment changed the cache line fetched from it")
		}

		e.seed(t, p, 4, 0x12)
		line, err = e.svc.DemandFetch(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(line.DiskSeg, 5)), full(0xEE)[:dev.BlockSize]); err != nil {
			t.Fatal(err)
		}
		_, v, s, _ := e.amap.Loc(e.amap.SegForIndex(4))
		medium := make([]byte, segBlocks*dev.BlockSize)
		if err := e.juke.ReadSegment(p, v, s, medium); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(medium, full(0x12)) {
			t.Fatal("a write into the cache line changed the medium's segment")
		}
	})
	e.k.Stop()
}

// TestFetchOfNeverWrittenSegmentReadsZeroes: the line a fetch of a segment
// the medium never held lands in reads as zeroes, though it held a staged
// segment before and both I/O processes' buffers held a copy-out of it.
func TestFetchOfNeverWrittenSegmentReadsZeroes(t *testing.T) {
	e := newEnv(t, 1)
	e.k.RunProc(func(p *sim.Proc) {
		seg, _ := e.c.TakeFree()
		e.c.Insert(5, seg, true, p.Now())
		blk := int64(e.amap.BlockOf(seg, 0))
		if err := e.disk.WriteBlocks(p, blk, bytes.Repeat([]byte{0x77}, segBlocks*dev.BlockSize)); err != nil {
			t.Fatal(err)
		}
		e.svc.ScheduleCopyout(p, 5, seg)
		e.svc.DrainCopyouts(p)
		e.svc.ScheduleCopyoutAs(p, 6, seg, 5) // a replica, through the stream's other process
		e.svc.DrainCopyouts(p)

		line, err := e.svc.DemandFetch(p, 9) // never written: evicts tag 5's clean line
		if err != nil {
			t.Fatal(err)
		}
		if line.DiskSeg != seg {
			t.Fatalf("fetch landed in line %d, want the only line, %d", line.DiskSeg, seg)
		}
		if got := e.readLine(t, p, blk); !bytes.Equal(got, make([]byte, len(got))) {
			t.Fatal("a fetched never-written segment does not read as zeroes")
		}
	})
	e.k.Stop()
}
