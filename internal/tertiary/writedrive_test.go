package tertiary

import (
	"bytes"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// The changer's write drive is reserved only while a copy-out is on its way
// to the library, from dispatch to finishCopyout: tags 0-15 are on volume 0,
// 16-31 on volume 1, 32-47 on volume 2 and 48-63 on volume 3 of a changer
// with two drives, the first the write drive.

// stageCopyout stages tag's line by hand and schedules its copy-out.
func (e *env) stageCopyout(t *testing.T, p *sim.Proc, tag int) {
	t.Helper()
	seg, ok := e.c.TakeFree()
	if !ok {
		t.Fatal("no free cache line to stage in")
	}
	if _, err := e.c.Insert(tag, seg, true, p.Now()); err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{byte(tag + 1)}, segBlocks*dev.BlockSize)
	if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), img); err != nil {
		t.Fatal(err)
	}
	e.svc.ScheduleCopyout(p, tag, seg)
}

func (e *env) fetch(t *testing.T, p *sim.Proc, tag int) {
	t.Helper()
	if _, err := e.svc.DemandFetch(p, tag); err != nil {
		t.Fatal(err)
	}
}

// TestFetchDuringCopyoutKeepsTheWritingPlatter: reads lend the write drive
// while nothing is written; a copy-out takes it back; and a fetch made while
// the next copy-out to the same platter is reading its line off the disk, with
// the write drive the least recently used, swaps the other drive, so the
// writing platter stays mounted and the copy-out needs no swap.
func TestFetchDuringCopyoutKeepsTheWritingPlatter(t *testing.T) {
	e := newEnv(t, 8)
	e.svc.AddIOStreams(1) // the fetch and the copy-out run at once
	e.k.RunProc(func(p *sim.Proc) {
		e.fetch(t, p, 16)
		e.fetch(t, p, 32)
		if !e.juke.VolumeLoaded(1) || !e.juke.VolumeLoaded(2) || e.juke.Stats().Swaps != 2 {
			t.Fatalf("with nothing written, fetches of volumes 1 and 2 left them loaded %v %v after %d swaps, want both after 2",
				e.juke.VolumeLoaded(1), e.juke.VolumeLoaded(2), e.juke.Stats().Swaps)
		}
		e.stageCopyout(t, p, 0)
		e.svc.DrainCopyouts(p)
		e.fetch(t, p, 33) // volume 2 is loaded: the other drive is used last
		if !e.juke.VolumeLoaded(0) || e.juke.Stats().Swaps != 3 {
			t.Fatalf("the copy-out to volume 0 did not take the write drive back in one swap (%d swaps)", e.juke.Stats().Swaps)
		}

		e.stageCopyout(t, p, 1)
		e.fetch(t, p, 48)
		e.svc.DrainCopyouts(p)
		if !e.juke.VolumeLoaded(0) || !e.juke.VolumeLoaded(3) || e.juke.Stats().Swaps != 4 {
			t.Fatalf("a fetch of volume 3 beside a copy-out to volume 0: loaded %v %v after %d swaps, want both after 4",
				e.juke.VolumeLoaded(0), e.juke.VolumeLoaded(3), e.juke.Stats().Swaps)
		}
	})
	e.k.Stop()
}

// TestIdleWriteDriveServesAFetch: once the copy-outs are drained, the write
// drive is one more drive for fetches: a fetch of a third volume swaps the
// writing platter out of it, the least recently used, and leaves the volume
// the other drive reads where it is.
func TestIdleWriteDriveServesAFetch(t *testing.T) {
	e := newEnv(t, 4)
	e.k.RunProc(func(p *sim.Proc) {
		e.stageCopyout(t, p, 0)
		e.svc.DrainCopyouts(p)
		e.fetch(t, p, 16)
		e.fetch(t, p, 32)
		if e.juke.VolumeLoaded(0) || !e.juke.VolumeLoaded(1) || !e.juke.VolumeLoaded(2) {
			t.Fatalf("after the copy-out to volume 0 and fetches of volumes 1 and 2, loaded: %v %v %v, want volumes 1 and 2",
				e.juke.VolumeLoaded(0), e.juke.VolumeLoaded(1), e.juke.VolumeLoaded(2))
		}
	})
	e.k.Stop()
}
