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
// segment before, which one copy-out shared with the medium and a replica's
// copy-out, through the stream's other process, read again.
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
		e.svc.ScheduleCopyouts(p, seg, nil, 5, 6) // a replica, through the stream's other process
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

// TestCopiedOutLineAndMediumStayApart: a copy-out reads its line once into an
// image the disk and the changer both keep, and neither side's later write
// reaches the other. A write into one copied-out line leaves the medium's
// segment as it was; a rewrite of another's segment on the medium leaves that
// line as it was.
func TestCopiedOutLineAndMediumStayApart(t *testing.T) {
	e := newEnv(t, 2)
	e.k.RunProc(func(p *sim.Proc) {
		full := func(b byte) []byte { return bytes.Repeat([]byte{b}, segBlocks*dev.BlockSize) }
		medium := func(tag int) []byte {
			_, v, s, _ := e.amap.Loc(e.amap.SegForIndex(tag))
			got := make([]byte, segBlocks*dev.BlockSize)
			if err := e.juke.ReadSegment(p, v, s, got); err != nil {
				t.Fatal(err)
			}
			return got
		}
		// copyOut stages tag's line with fill, copies it out and returns the
		// line's first block.
		copyOut := func(tag int, fill byte) int64 {
			seg, _ := e.c.TakeFree()
			e.c.Insert(tag, seg, true, p.Now())
			blk := int64(e.amap.BlockOf(seg, 0))
			if err := e.disk.WriteBlocks(p, blk, full(fill)); err != nil {
				t.Fatal(err)
			}
			e.svc.ScheduleCopyout(p, tag, seg)
			e.svc.DrainCopyouts(p)
			if !bytes.Equal(medium(tag), full(fill)) {
				t.Fatalf("the copy-out of %d did not reach the medium", tag)
			}
			return blk
		}

		blk := copyOut(5, 0x77)
		if err := e.disk.WriteBlocks(p, blk+5, full(0xEE)[:dev.BlockSize]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(medium(5), full(0x77)) {
			t.Fatal("a write into the copied-out line changed the medium's segment")
		}

		blk = copyOut(6, 0x12)
		e.seed(t, p, 6, 0xCD)
		if !bytes.Equal(e.readLine(t, p, blk), full(0x12)) {
			t.Fatal("rewriting the medium's segment changed the line copied out to it")
		}
	})
	e.k.Stop()
}

// TestZeroImageStaysZero: a fetch of a never-written segment hands its line
// the service's one zero image, and a write into that line leaves the image
// all zeroes, so the next such fetch reads zeroes too.
func TestZeroImageStaysZero(t *testing.T) {
	e := newEnv(t, 2)
	e.k.RunProc(func(p *sim.Proc) {
		line, err := e.svc.DemandFetch(p, 9)
		if err != nil {
			t.Fatal(err)
		}
		blk := int64(e.amap.BlockOf(line.DiskSeg, 0))
		if err := e.disk.WriteBlocks(p, blk+3, bytes.Repeat([]byte{0xEE}, dev.BlockSize)); err != nil {
			t.Fatal(err)
		}
		zero := make([]byte, segBlocks*dev.BlockSize)
		if !bytes.Equal(e.svc.zero, zero) {
			t.Fatal("a write into a line fetched as zeroes changed the zero image")
		}
		line, err = e.svc.DemandFetch(p, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.readLine(t, p, int64(e.amap.BlockOf(line.DiskSeg, 0))), zero) {
			t.Fatal("the next fetch of a never-written segment does not read as zeroes")
		}
	})
	e.k.Stop()
}
