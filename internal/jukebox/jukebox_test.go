package jukebox

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/sim"
)

const segBytes = 1024 * 1024

func newMO(k *sim.Kernel, drives, vols, segs int) *Jukebox {
	return MustNew(k, MO6300, drives, vols, segs, segBytes, nil)
}

func TestWriteReadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 2, 4, 8)
	k.RunProc(func(p *sim.Proc) {
		w := make([]byte, segBytes)
		for i := range w {
			w[i] = byte(i)
		}
		if err := j.WriteSegment(p, 1, 3, w); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, segBytes)
		if err := j.ReadSegment(p, 1, 3, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("round trip mismatch")
		}
	})
}

func TestUnwrittenSegmentReadsZero(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	k.RunProc(func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{9}, segBytes)
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("expected zeroes")
			}
		}
	})
}

func TestVolumeChangeCostMatchesTable5(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 2, 4)
	var swapCost sim.Time
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		// Load volume 0 (first swap) and read once.
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		// Time from "eject" (i.e. request targeting the other volume)
		// to a completed read of volume 1 — the Table 5 definition —
		// minus the pure read time measured on a loaded volume.
		t0 := p.Now()
		if err := j.ReadSegment(p, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
		withSwap := p.Now() - t0
		t0 = p.Now()
		if err := j.ReadSegment(p, 1, 1, buf); err != nil {
			t.Fatal(err)
		}
		plainRead := p.Now() - t0
		swapCost = withSwap - plainRead
	})
	got := swapCost.Seconds()
	if got < 13.0 || got > 14.0 {
		t.Fatalf("volume change = %.2fs, want ~13.5s (Table 5)", got)
	}
}

func TestMOReadWriteRatesMatchTable5(t *testing.T) {
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	j := MustNew(k, MO6300, 2, 2, 64, segBytes, bus)
	var readRate, writeRate float64
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		// Prime: load the volume so swap cost is excluded (Table 5
		// measures raw throughput with sequential 1 MB transfers).
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		t0 := p.Now()
		for s := 1; s <= 16; s++ {
			if err := j.WriteSegment(p, 0, s, buf); err != nil {
				t.Fatal(err)
			}
		}
		writeRate = 16 * 1024 / (p.Now() - t0).Seconds()
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		t0 = p.Now()
		for s := 1; s <= 16; s++ {
			if err := j.ReadSegment(p, 0, s, buf); err != nil {
				t.Fatal(err)
			}
		}
		readRate = 16 * 1024 / (p.Now() - t0).Seconds()
	})
	if readRate < 451*0.95 || readRate > 451*1.05 {
		t.Errorf("MO read rate = %.0f KB/s, want ~451", readRate)
	}
	if writeRate < 204*0.95 || writeRate > 204*1.05 {
		t.Errorf("MO write rate = %.0f KB/s, want ~204", writeRate)
	}
}

func TestEndOfMedium(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 2, 8)
	j.SetActualSegments(0, 3) // compression fell short
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		for s := 0; s < 3; s++ {
			if err := j.WriteSegment(p, 0, s, buf); err != nil {
				t.Fatalf("seg %d: %v", s, err)
			}
		}
		if err := j.WriteSegment(p, 0, 3, buf); !errors.Is(err, ErrEndOfMedium) {
			t.Fatalf("want ErrEndOfMedium, got %v", err)
		}
		if !j.vols[0].full {
			t.Fatal("volume not marked full")
		}
		// Once full, even earlier segments reject writes.
		if err := j.WriteSegment(p, 0, 1, buf); !errors.Is(err, ErrEndOfMedium) {
			t.Fatalf("full volume accepted write: %v", err)
		}
		// The next volume still works.
		if err := j.WriteSegment(p, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWriteOnce(t *testing.T) {
	k := sim.NewKernel()
	j := MustNew(k, SonyWORM, 1, 1, 4, segBytes, nil)
	j.WriteOnce = true
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.WriteSegment(p, 0, 0, buf); err == nil {
			t.Fatal("overwrite of WORM segment accepted")
		}
	})
}

func TestWriteDriveReservation(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 2, 3, 8)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		// A write is on its way, and loads the write drive (0).
		j.Writing(1)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if j.drives[0].loaded != 0 {
			t.Fatalf("write went to drive holding %d, want volume 0 in drive 0", j.drives[0].loaded)
		}
		// A read of another volume must use the other drive.
		if err := j.ReadSegment(p, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if j.drives[1].loaded != 1 {
			t.Fatalf("read loaded drive1 with %d, want 1", j.drives[1].loaded)
		}
		if j.drives[0].loaded != 0 {
			t.Fatal("read evicted the writing volume")
		}
		// A read of the writing volume is served by the write drive
		// without a swap.
		swaps := j.Stats().Swaps
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if j.Stats().Swaps != swaps {
			t.Fatal("read of loaded writing volume caused a swap")
		}
	})
}

// TestReadsKeepOffTheWriteDriveWhileWriting: with a write on its way, a read
// of a volume not in a drive swaps the reading drive, not the write drive,
// even when the write drive is the least recently used.
func TestReadsKeepOffTheWriteDriveWhileWriting(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 2, 3, 8)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		j.Writing(1)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		for vol := 1; vol <= 2; vol++ {
			if err := j.ReadSegment(p, vol, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
		if got := [2]int{j.drives[0].loaded, j.drives[1].loaded}; got != [2]int{0, 2} {
			t.Fatalf("drives hold %v, want [0 2]: the writing volume stays in the write drive", got)
		}
	})
}

// TestIdleWriteDriveServesReads: with no write on its way, the write drive is
// one more drive for reads. Reads that alternate between two volumes neither
// of which is in it load each once, two swaps in all, instead of swapping
// both in and out of the other drive at every read.
func TestIdleWriteDriveServesReads(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 2, 3, 8)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		j.Writing(1)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		j.Writing(-1)
		swaps := j.Stats().Swaps
		for i := 0; i < 6; i++ {
			if err := j.ReadSegment(p, 1+i%2, i/2, buf); err != nil {
				t.Fatal(err)
			}
		}
		if n := j.Stats().Swaps - swaps; n != 2 {
			t.Fatalf("six reads alternating between volumes 1 and 2: %d swaps, want 2", n)
		}
	})
}

// Two volumes written in turn (striped allocation) must not swap each
// other out of the write drive while the other drive stands empty; a full
// platter is moved on from in the write drive as before; and a drive a read
// has loaded is not taken for a write.
func TestAlternatingWritesLoadTheEmptyDrive(t *testing.T) {
	loaded := func(j *Jukebox) [2]int { return [2]int{j.drives[0].loaded, j.drives[1].loaded} }
	buf := make([]byte, segBytes)

	k := sim.NewKernel()
	j := newMO(k, 2, 3, 4)
	k.RunProc(func(p *sim.Proc) {
		for seg := 0; seg < 3; seg++ {
			for vol := 0; vol < 2; vol++ {
				if err := j.WriteSegment(p, vol, seg, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := loaded(j); got != [2]int{0, 1} || j.Stats().Swaps != 2 {
			t.Fatalf("alternating writes: drives hold %v after %d swaps, want [0 1] after 2", got, j.Stats().Swaps)
		}
	})

	k = sim.NewKernel()
	j = newMO(k, 2, 3, 4)
	k.RunProc(func(p *sim.Proc) {
		for seg := 0; seg < 4; seg++ {
			if err := j.WriteSegment(p, 0, seg, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.WriteSegment(p, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if got := loaded(j); got != [2]int{1, -1} {
			t.Fatalf("after filling volume 0: drives hold %v, want the write drive moved on to 1 and the other empty", got)
		}
	})

	k = sim.NewKernel()
	j = newMO(k, 2, 3, 4)
	k.RunProc(func(p *sim.Proc) {
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.ReadSegment(p, 2, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.WriteSegment(p, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if got := loaded(j); got != [2]int{1, 2} {
			t.Fatalf("write beside a reading drive: drives hold %v, want [1 2]", got)
		}
	})
}

func TestSwapHoldsSharedBus(t *testing.T) {
	k := sim.NewKernel()
	bus := dev.NewBus(k, "scsi", dev.SCSIBusRate)
	j := MustNew(k, MO6300, 1, 2, 4, segBytes, bus)
	d := dev.NewDisk(k, dev.RZ57, 1024, bus)
	var diskDone sim.Time
	k.Go("mo", func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.ReadSegment(p, 0, 0, buf); err != nil { // swap hogs bus
			t.Error(err)
		}
	})
	k.Go("disk", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		buf := make([]byte, dev.BlockSize)
		if err := d.ReadBlocks(p, 0, buf); err != nil {
			t.Error(err)
		}
		diskDone = p.Now()
	})
	k.Run()
	if diskDone < MO6300.SwapTime {
		t.Fatalf("disk I/O finished at %v, should have stalled behind the %v media swap", diskDone, MO6300.SwapTime)
	}
}

func TestTapeSeekCostGrowsWithDistance(t *testing.T) {
	k := sim.NewKernel()
	j := MustNew(k, Metrum, 1, 1, 1000, segBytes, nil)
	var near, far sim.Time
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.ReadSegment(p, 0, 0, buf); err != nil { // load, pos=1
			t.Fatal(err)
		}
		t0 := p.Now()
		if err := j.ReadSegment(p, 0, 2, buf); err != nil {
			t.Fatal(err)
		}
		near = p.Now() - t0
		t0 = p.Now()
		if err := j.ReadSegment(p, 0, 900, buf); err != nil {
			t.Fatal(err)
		}
		far = p.Now() - t0
	})
	if far <= near {
		t.Fatalf("far seek (%v) not slower than near seek (%v)", far, near)
	}
}

func TestEraseVolumeReclaims(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	j.SetActualSegments(0, 1)
	k.RunProc(func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{5}, segBytes)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.WriteSegment(p, 0, 1, buf); !errors.Is(err, ErrEndOfMedium) {
			t.Fatal("expected EOM")
		}
		j.EraseVolume(0)
		if j.vols[0].full {
			t.Fatal("erase did not clear full mark")
		}
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("erase did not clear data")
			}
		}
	})
}

func TestArgValidation(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 2, 4)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.ReadSegment(p, 2, 0, buf); err == nil {
			t.Error("bad volume accepted")
		}
		if err := j.ReadSegment(p, 0, 4, buf); err == nil {
			t.Error("bad segment accepted")
		}
		if err := j.ReadSegment(p, 0, 0, buf[:100]); err == nil {
			t.Error("short buffer accepted")
		}
	})
}

func TestFaultInjection(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	mediaErr := errors.New("bad spot")
	j.Fault = func(op string, vol, seg int) error {
		if op == "read" && seg == 2 {
			return mediaErr
		}
		return nil
	}
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.ReadSegment(p, 0, 2, buf); !errors.Is(err, mediaErr) {
			t.Fatalf("fault not injected: %v", err)
		}
		if err := j.ReadSegment(p, 0, 1, buf); err != nil {
			t.Fatalf("unexpected fault: %v", err)
		}
	})
}

func TestTypedSentinelErrors(t *testing.T) {
	k := sim.NewKernel()
	j := MustNew(k, SonyWORM, 1, 2, 4, segBytes, nil)
	j.WriteOnce = true
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.WriteSegment(p, 0, 0, buf); !errors.Is(err, ErrWriteOnce) {
			t.Fatalf("WORM violation = %v, want errors.Is ErrWriteOnce", err)
		}
		if err := j.ReadSegment(p, 5, 0, buf); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("bad volume = %v, want errors.Is ErrOutOfRange", err)
		}
		if err := j.ReadSegment(p, 0, 9, buf); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("bad segment = %v, want errors.Is ErrOutOfRange", err)
		}
		if err := j.WriteSegment(p, 0, 1, buf[:10]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("short buffer = %v, want errors.Is ErrOutOfRange", err)
		}
	})
}

func TestDriveOfflineFailover(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 2, 3, 8)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		// With a write on its way, reads use the non-reserved drive (1).
		// Load volume 0 there, then take drive 1 down: the next read of
		// volume 0 must fail over to drive 0, re-loading the volume with a
		// swap.
		j.Writing(1)
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if j.drives[1].loaded != 0 {
			t.Fatalf("drive 1 holds volume %d, want 0", j.drives[1].loaded)
		}
		j.SetDriveOffline(1, true)
		if err := j.ReadSegment(p, 0, 1, buf); err != nil {
			t.Fatalf("failover read: %v", err)
		}
		if j.drives[0].loaded != 0 {
			t.Fatalf("drive 0 holds volume %d, want 0 after failover", j.drives[0].loaded)
		}
		if j.Stats().Failovers == 0 {
			t.Fatal("failover not counted")
		}
		// Writes reserve drive 0; with it offline and drive 1 healthy,
		// they must fail over to drive 1.
		j.SetDriveOffline(1, false)
		j.SetDriveOffline(0, true)
		fo := j.Stats().Failovers
		if err := j.WriteSegment(p, 1, 0, buf); err != nil {
			t.Fatalf("failover write: %v", err)
		}
		if j.drives[1].loaded != 1 {
			t.Fatalf("drive 1 holds volume %d, want 1 after write failover", j.drives[1].loaded)
		}
		if j.Stats().Failovers <= fo {
			t.Fatal("write failover not counted")
		}
		// All drives down: typed, matchable error.
		j.SetDriveOffline(1, true)
		if err := j.ReadSegment(p, 0, 2, buf); !errors.Is(err, ErrDriveOffline) {
			t.Fatalf("all-offline read = %v, want errors.Is ErrDriveOffline", err)
		}
		// Recovery: back online, requests succeed again.
		j.SetDriveOffline(0, false)
		if err := j.ReadSegment(p, 0, 2, buf); err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
	})
}

func TestLoadFaultHookBlocksSwap(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 2, 4)
	loadErr := errors.New("robot jam")
	loads := 0
	j.Fault = func(op string, vol, seg int) error {
		if op == "load" {
			loads++
			if vol == 1 {
				return loadErr
			}
		}
		return nil
	}
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.ReadSegment(p, 0, 0, buf); err != nil {
			t.Fatalf("volume 0 load should pass the hook: %v", err)
		}
		if err := j.ReadSegment(p, 1, 0, buf); !errors.Is(err, loadErr) {
			t.Fatalf("volume 1 load fault not propagated: %v", err)
		}
		if loads < 2 {
			t.Fatalf("load hook fired %d times, want one per swap attempt", loads)
		}
		if j.Stats().LoadFaults != 1 {
			t.Fatalf("LoadFaults = %d, want 1", j.Stats().LoadFaults)
		}
		// The drive must not be wedged: volume 0 still readable.
		if err := j.ReadSegment(p, 0, 1, buf); err != nil {
			t.Fatalf("drive wedged after load fault: %v", err)
		}
	})
}

func TestFaultCountersPerOp(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 1, 1, 4)
	bad := errors.New("scratch")
	j.Fault = func(op string, vol, seg int) error {
		if seg == 3 {
			return bad
		}
		return nil
	}
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, segBytes)
		if err := j.ReadSegment(p, 0, 3, buf); !errors.Is(err, bad) {
			t.Fatal("read fault not injected")
		}
		if err := j.WriteSegment(p, 0, 3, buf); !errors.Is(err, bad) {
			t.Fatal("write fault not injected")
		}
		s := j.Stats()
		if s.ReadFaults != 1 || s.WriteFaults != 1 {
			t.Fatalf("fault counters = %d/%d, want 1/1", s.ReadFaults, s.WriteFaults)
		}
	})
}

func TestImageSaveLoadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	j := newMO(k, 2, 3, 8)
	j.SetActualSegments(1, 4)
	var want []byte
	k.RunProc(func(p *sim.Proc) {
		want = bytes.Repeat([]byte{0x5A}, segBytes)
		if err := j.WriteSegment(p, 2, 5, want); err != nil {
			t.Fatal(err)
		}
		// Fill volume 1 to its reduced capacity so the full flag
		// round-trips too.
		buf := make([]byte, segBytes)
		for s := 0; s < 4; s++ {
			if err := j.WriteSegment(p, 1, s, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.WriteSegment(p, 1, 4, buf); !errors.Is(err, ErrEndOfMedium) {
			t.Fatal("expected EOM")
		}
	})
	var img bytes.Buffer
	if err := j.SaveStore(&img); err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel()
	j2 := MustNew(k2, MO6300, 2, 3, 8, segBytes, nil)
	if err := j2.LoadStore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	k2.RunProc(func(p *sim.Proc) {
		got := make([]byte, segBytes)
		if err := j2.ReadSegment(p, 2, 5, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("image round trip lost data")
		}
		if !j2.vols[1].full {
			t.Fatal("full flag lost in image")
		}
	})
	// Geometry mismatch must be rejected.
	k3 := sim.NewKernel()
	j3 := MustNew(k3, MO6300, 2, 4, 8, segBytes, nil)
	if err := j3.LoadStore(bytes.NewReader(img.Bytes())); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}
