package jukebox

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestLentImageSurvivesRewrite: an image LendSegment handed out keeps its
// bytes when the segment is written again; the rewrite installs a new image,
// which the next lend returns.
func TestLentImageSurvivesRewrite(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	k.RunProc(func(p *sim.Proc) {
		if err := j.WriteSegment(p, 0, 2, bytes.Repeat([]byte{0xA1}, segBytes)); err != nil {
			t.Fatal(err)
		}
		lent, err := j.LendSegment(p, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.WriteSegment(p, 0, 2, bytes.Repeat([]byte{0xB2}, segBytes)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lent, bytes.Repeat([]byte{0xA1}, segBytes)) {
			t.Fatal("rewriting the segment changed the image lent before")
		}
		now, err := j.LendSegment(p, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, bytes.Repeat([]byte{0xB2}, segBytes)) {
			t.Fatal("the lend after the rewrite does not return the new image")
		}
	})
}

// TestLendNeverWrittenIsNil: a segment never written lends as nil (it reads
// as zeroes), with no image allocated for it.
func TestLendNeverWrittenIsNil(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	k.RunProc(func(p *sim.Proc) {
		if n := testing.AllocsPerRun(4, func() {
			img, err := j.LendSegment(p, 0, 1)
			if err != nil || img != nil {
				t.Fatalf("never-written segment lent %d bytes, error %v; want nil, nil", len(img), err)
			}
		}); n != 0 {
			t.Errorf("lending a never-written segment: %v allocations, want 0", n)
		}
	})
}

// TestTornWriteHookSeesNewHeadOldTail: at the first OnMediaWrite point of a
// rewrite the medium holds the new first half and the old second half (what
// a power cut there leaves), at the second the whole new segment; an image
// lent before the rewrite sees neither.
func TestTornWriteHookSeesNewHeadOldTail(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	half := segBytes / 2
	k.RunProc(func(p *sim.Proc) {
		if err := j.WriteSegment(p, 0, 3, bytes.Repeat([]byte{0x01}, segBytes)); err != nil {
			t.Fatal(err)
		}
		lent, err := j.LendSegment(p, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		j.OnMediaWrite = func(vol, seg int) {
			calls++
			now := j.vols[vol].store[seg]
			tail := byte(0x01)
			if calls == 2 {
				tail = 0x02
			}
			if !bytes.Equal(now[:half], bytes.Repeat([]byte{0x02}, half)) || !bytes.Equal(now[half:], bytes.Repeat([]byte{tail}, half)) {
				t.Errorf("hook %d: the medium does not hold the new head and the %#x tail", calls, tail)
			}
			if !bytes.Equal(lent, bytes.Repeat([]byte{0x01}, segBytes)) {
				t.Errorf("hook %d: the image lent before the rewrite changed", calls)
			}
		}
		if err := j.WriteSegment(p, 0, 3, bytes.Repeat([]byte{0x02}, segBytes)); err != nil {
			t.Fatal(err)
		}
		if calls != 2 {
			t.Fatalf("OnMediaWrite fired %d times, want 2", calls)
		}
	})
}

// TestAdoptSegmentKeepsTheBufferWriteSegmentCopies: AdoptSegment installs the
// caller's buffer itself — the next lend returns it — and under observation its
// first point is a torn image of its own, the new head over the old tail, its
// second the buffer. WriteSegment copies: changing its buffer afterwards
// changes nothing on the medium.
func TestAdoptSegmentKeepsTheBufferWriteSegmentCopies(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	half := segBytes / 2
	k.RunProc(func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0x01}, segBytes)
		if err := j.WriteSegment(p, 0, 1, buf); err != nil {
			t.Fatal(err)
		}
		clear(buf)
		if lent, err := j.LendSegment(p, 0, 1); err != nil || !bytes.Equal(lent, bytes.Repeat([]byte{0x01}, segBytes)) {
			t.Fatalf("changing WriteSegment's buffer afterwards changed the medium (%v)", err)
		}

		img := bytes.Repeat([]byte{0x02}, segBytes)
		calls := 0
		j.OnMediaWrite = func(vol, seg int) {
			calls++
			now := j.vols[vol].store[seg]
			if own := &now[0] == &img[0]; own != (calls == 2) {
				t.Errorf("hook %d: the medium holds the adopted buffer itself: %v", calls, own)
			}
			if calls == 1 && (!bytes.Equal(now[:half], img[:half]) || !bytes.Equal(now[half:], bytes.Repeat([]byte{0x01}, half))) {
				t.Error("hook 1: the torn image does not hold the new head and the old tail")
			}
		}
		if err := j.AdoptSegment(p, 0, 1, img); err != nil {
			t.Fatal(err)
		}
		if calls != 2 {
			t.Fatalf("OnMediaWrite fired %d times, want 2", calls)
		}
		j.OnMediaWrite = nil
		lent, err := j.LendSegment(p, 0, 1)
		if err != nil || &lent[0] != &img[0] {
			t.Fatalf("the lend after AdoptSegment does not return the adopted buffer (%v)", err)
		}
	})
}
