package jukebox

import (
	"bytes"
	"testing"

	"repro/internal/dev"
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

// TestTornWriteHookSeesNewHeadOldTail: a cut at the first event of a rewrite
// sees the medium hold the new first half and the old second half (what a
// power cut there leaves), one at the second the whole new segment; an image
// lent before the rewrite sees neither. Each cut fires once, and the rewrite
// counts two events.
func TestTornWriteHookSeesNewHeadOldTail(t *testing.T) {
	half := segBytes / 2
	for target := int64(1); target <= 2; target++ {
		k := sim.NewKernel()
		j := newMO(k, 1, 1, 4)
		k.RunProc(func(p *sim.Proc) {
			if err := j.WriteSegment(p, 0, 3, bytes.Repeat([]byte{0x01}, segBytes)); err != nil {
				t.Fatal(err)
			}
			lent, err := j.LendSegment(p, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			j.Cut = &dev.Cut{Target: target, At: func() {
				fired++
				now := j.vols[0].store[3]
				tail := byte(0x01)
				if target == 2 {
					tail = 0x02
				}
				if !bytes.Equal(now[:half], bytes.Repeat([]byte{0x02}, half)) || !bytes.Equal(now[half:], bytes.Repeat([]byte{tail}, half)) {
					t.Errorf("cut at %d: the medium does not hold the new head and the %#x tail", target, tail)
				}
				if !bytes.Equal(lent, bytes.Repeat([]byte{0x01}, segBytes)) {
					t.Errorf("cut at %d: the image lent before the rewrite changed", target)
				}
			}}
			if err := j.WriteSegment(p, 0, 3, bytes.Repeat([]byte{0x02}, segBytes)); err != nil {
				t.Fatal(err)
			}
			if fired != 1 || j.Cut.N != 2 {
				t.Fatalf("cut at %d fired %d times over %d events, want once over 2", target, fired, j.Cut.N)
			}
		})
	}
}

// TestAdoptSegmentKeepsTheBufferWriteSegmentCopies: AdoptSegment installs the
// caller's buffer itself — the next lend returns it — and a cut at its first
// event sees a torn image of its own, the new head over the old tail, one at
// its second the buffer. WriteSegment copies: changing its buffer afterwards
// changes nothing on the medium.
func TestAdoptSegmentKeepsTheBufferWriteSegmentCopies(t *testing.T) {
	half := segBytes / 2
	for target := int64(1); target <= 2; target++ {
		k := sim.NewKernel()
		j := newMO(k, 1, 1, 4)
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
			fired := 0
			j.Cut = &dev.Cut{Target: target, At: func() {
				fired++
				now := j.vols[0].store[1]
				if own := &now[0] == &img[0]; own != (target == 2) {
					t.Errorf("cut at %d: the medium holds the adopted buffer itself: %v", target, own)
				}
				if target == 1 && (!bytes.Equal(now[:half], img[:half]) || !bytes.Equal(now[half:], bytes.Repeat([]byte{0x01}, half))) {
					t.Error("cut at 1: the torn image does not hold the new head and the old tail")
				}
			}}
			if err := j.AdoptSegment(p, 0, 1, img); err != nil {
				t.Fatal(err)
			}
			if fired != 1 {
				t.Fatalf("cut at %d fired %d times, want once", target, fired)
			}
			j.Cut = nil
			lent, err := j.LendSegment(p, 0, 1)
			if err != nil || &lent[0] != &img[0] {
				t.Fatalf("the lend after AdoptSegment does not return the adopted buffer (%v)", err)
			}
		})
	}
}
