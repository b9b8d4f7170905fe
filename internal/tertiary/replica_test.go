package tertiary

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/sim"
)

// medium returns the changer's own image of tertiary segment tag.
func (e *libEnv) medium(t *testing.T, p *sim.Proc, tag int) []byte {
	t.Helper()
	d, v, s, _ := e.amap.Loc(e.amap.SegForIndex(tag))
	img, err := e.libs[d].Jukebox.LendSegment(p, v, s)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// hookDisk is the cache disk with a hook and a log of the copy-outs' line
// reads (ReadBlocks and ShareBlocks): before runs once, as the read numbered at
// (from 1) begins, and reads holds each read's start and end in the order they
// began.
type hookDisk struct {
	recDisk
	at     int
	before func(p *sim.Proc)
	reads  [][2]sim.Time
}

func (d *hookDisk) read(p *sim.Proc, read func() error) error {
	i := len(d.reads)
	d.reads = append(d.reads, [2]sim.Time{p.Now()})
	if i+1 == d.at {
		d.before(p)
	}
	err := read()
	d.reads[i][1] = p.Now()
	return err
}

func (d *hookDisk) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.read(p, func() error { return d.recDisk.ReadBlocks(p, blk, buf) })
}

func (d *hookDisk) ShareBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.read(p, func() error { return d.recDisk.ShareBlocks(p, blk, buf) })
}

// TestReplicasShareOneImage: the two copy-outs of a line replicated over two
// libraries leave both media holding one image, equal to the line, and a
// later write into the line reaches neither. Before, each copy-out read the
// line into an image of its own.
func TestReplicasShareOneImage(t *testing.T) {
	e := newLibEnv(2, 1, 4)
	e.k.RunProc(func(p *sim.Proc) {
		seg := e.stage(t, p, 5)
		e.svc.ScheduleCopyouts(p, seg, nil, 5, 5, 5+libSegs)
		e.svc.DrainCopyouts(p)
		a, b := e.medium(t, p, 5), e.medium(t, p, 5+libSegs)
		if !bytes.Equal(a, fill(5)) || !bytes.Equal(b, fill(5)) {
			t.Fatal("a replica's medium does not hold the line")
		}
		if &a[0] != &b[0] {
			t.Fatal("the replicas of one line hold two images")
		}
		if l, _ := e.c.Peek(5); l.Staging || l.Pins != 0 {
			t.Fatalf("after both copy-outs the line is staging %v with %d pins", l.Staging, l.Pins)
		}
		if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 3)), make([]byte, dev.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.medium(t, p, 5), fill(5)) || !bytes.Equal(e.medium(t, p, 5+libSegs), fill(5)) {
			t.Fatal("a write into the copied-out line changed a replica")
		}
	})
	if s := e.svc.Stats(); s.Copyouts != 2 {
		t.Fatalf("%d copy-outs, want 2", s.Copyouts)
	}
	e.k.Stop()
}

// lateShare is the cache disk with each shared read held back a second, so
// that a sibling copy-out's plain read reaches the line first. reads logs the
// reads in the order they began.
type lateShare struct {
	recDisk
	reads *[]string
}

func (d lateShare) ShareBlocks(p *sim.Proc, blk int64, buf []byte) error {
	p.Sleep(time.Second)
	*d.reads = append(*d.reads, "share")
	return d.recDisk.ShareBlocks(p, blk, buf)
}

func (d lateShare) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	*d.reads = append(*d.reads, "read")
	return d.recDisk.ReadBlocks(p, blk, buf)
}

// TestSiblingFirstSharesTheStagedImage: a replicated line's sibling copy-out
// reads the line before the first copy-out would read it back into the image
// it was staged in. When that image holds the line's bytes the sibling hands
// it on, so both media keep the one staged image and the sibling's read
// buffer goes back unused. When it does not (the line changed after staging)
// the sibling keeps the bytes it read, in an image of its own.
func TestSiblingFirstSharesTheStagedImage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		staged func() []byte
		shared bool // both media keep the staged image, and the read buffer goes back
	}{
		{"same bytes", func() []byte { return fill(5) }, true},
		{"other bytes", func() []byte { b := fill(5); clear(b[len(b)-dev.BlockSize:]); return b }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newLibEnv(2, 1, 4)
			var reads []string
			e.svc.disk = lateShare{recDisk{e.disk, &e.lineWrites}, &reads}
			e.k.RunProc(func(p *sim.Proc) {
				seg := e.stage(t, p, 5)
				img := tc.staged()
				e.svc.ScheduleCopyouts(p, seg, img, 5, 5, 5+libSegs)
				e.svc.DrainCopyouts(p)
				if len(reads) != 2 || reads[0] != "read" {
					t.Fatalf("reads %v: the sibling did not reach the line first", reads)
				}
				a, b := e.medium(t, p, 5), e.medium(t, p, 5+libSegs)
				if !bytes.Equal(a, fill(5)) || !bytes.Equal(b, fill(5)) {
					t.Fatal("a replica's medium does not hold the line")
				}
				if &a[0] != &img[0] {
					t.Error("the first copy-out's changer keeps another image than the line was staged in")
				}
				if shared := &b[0] == &img[0]; shared != tc.shared {
					t.Errorf("the sibling's changer keeps the staged image: %v, want %v", shared, tc.shared)
				}
				if n := len(e.svc.readBufs); (n == 1) != tc.shared {
					t.Errorf("%d read buffers back after the copy-outs", n)
				}
			})
			e.k.Stop()
		})
	}
}

// TestReplicaOfAChangedLineGetsItsOwnImage: when the line's bytes change
// between the reads of two sibling copy-outs (the second read writes the line
// before it begins, so the write waits for the first read at the arm), each
// medium keeps the bytes its own read found, in an image of its own.
func TestReplicaOfAChangedLineGetsItsOwnImage(t *testing.T) {
	e := newLibEnv(1, 1, 4)
	e.k.RunProc(func(p *sim.Proc) {
		seg := e.stage(t, p, 5)
		e.svc.disk = &hookDisk{recDisk: recDisk{e.disk, &e.lineWrites}, at: 2, before: func(p *sim.Proc) {
			if err := e.disk.WriteBlocks(p, int64(e.amap.BlockOf(seg, 0)), fill(9)); err != nil {
				t.Error(err)
			}
		}}
		e.svc.ScheduleCopyouts(p, seg, nil, 5, 5, 6)
		e.svc.DrainCopyouts(p)
		a, b := e.medium(t, p, 5), e.medium(t, p, 6)
		if !bytes.Equal(a, fill(5)) {
			t.Fatal("the first copy-out's medium does not hold what it read")
		}
		if !bytes.Equal(b, fill(9)) {
			t.Fatal("the second copy-out's medium does not hold the changed line")
		}
		if &a[0] == &b[0] {
			t.Fatal("two different images share one backing array")
		}
	})
	e.k.Stop()
}

// TestReplicaCopyoutsSurviveTransientFaults: the sibling's line read fails
// once and every medium write may fail transiently (an injected fault plan);
// both copy-outs retry to completion and their media share the line's one
// image.
func TestReplicaCopyoutsSurviveTransientFaults(t *testing.T) {
	e := newLibEnv(2, 1, 4)
	pl := fault.NewPlan(fault.Config{Seed: 3, TransientWriteRate: 0.5, MaxBurst: 2}) // fails at least one medium write
	for i, l := range e.libs {
		pl.InstallJukebox(string(rune('a'+i)), l.Jukebox)
	}
	reads := 0
	e.disk.Fault = func(op string, blk int64) error {
		if op == "read" {
			if reads++; reads == 2 {
				return dev.ErrTransientMedia
			}
		}
		return nil
	}
	e.k.RunProc(func(p *sim.Proc) {
		seg := e.stage(t, p, 5)
		e.svc.ScheduleCopyouts(p, seg, nil, 5, 5, 5+libSegs)
		e.svc.DrainCopyouts(p)
		a, b := e.medium(t, p, 5), e.medium(t, p, 5+libSegs)
		if !bytes.Equal(a, fill(5)) || !bytes.Equal(b, fill(5)) {
			t.Fatal("a replica's medium does not hold the line")
		}
		if &a[0] != &b[0] {
			t.Fatal("the replicas of one line hold two images")
		}
	})
	s := e.svc.Stats()
	if s.Copyouts != 2 || s.CopyoutFaults != 0 || s.RetriesExhausted != 0 {
		t.Fatalf("copy-outs not recovered: %+v", s)
	}
	if w := pl.DeviceCounts("a").Transient + pl.DeviceCounts("b").Transient; s.TransientRetries != w+1 || w == 0 {
		t.Fatalf("%d retries for %d injected medium faults and one disk fault", s.TransientRetries, w)
	}
	e.k.Stop()
}
