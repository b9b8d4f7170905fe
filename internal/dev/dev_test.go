package dev

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestReadUnwrittenReturnsZeroes(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	k.RunProc(func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{0xff}, BlockSize)
		if err := d.ReadBlocks(p, 100, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("unwritten block not zero")
			}
		}
	})
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	k.RunProc(func(p *sim.Proc) {
		w := make([]byte, 3*BlockSize)
		for i := range w {
			w[i] = byte(i % 251)
		}
		if err := d.WriteBlocks(p, 7, w); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, 3*BlockSize)
		if err := d.ReadBlocks(p, 7, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("read back differs from write")
		}
	})
}

func TestPartialOverlapWrite(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	k.RunProc(func(p *sim.Proc) {
		a := bytes.Repeat([]byte{1}, 2*BlockSize)
		b := bytes.Repeat([]byte{2}, 2*BlockSize)
		if err := d.WriteBlocks(p, 10, a); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlocks(p, 11, b); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, 3*BlockSize)
		if err := d.ReadBlocks(p, 10, r); err != nil {
			t.Fatal(err)
		}
		if r[0] != 1 || r[BlockSize] != 2 || r[2*BlockSize] != 2 {
			t.Fatalf("overlap wrong: %d %d %d", r[0], r[BlockSize], r[2*BlockSize])
		}
	})
}

func TestRangeChecks(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 16, nil)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, BlockSize)
		if err := d.ReadBlocks(p, -1, buf); err == nil {
			t.Error("negative block accepted")
		}
		if err := d.ReadBlocks(p, 16, buf); err == nil {
			t.Error("past-end block accepted")
		}
		if err := d.WriteBlocks(p, 15, make([]byte, 2*BlockSize)); err == nil {
			t.Error("write spilling past end accepted")
		}
		if err := d.ReadBlocks(p, 0, make([]byte, 100)); err == nil {
			t.Error("non-multiple buffer accepted")
		}
	})
}

// TestRZ57SequentialRatesMatchTable5 checks the calibration: sequential 1 MB
// transfers should land within 3% of Table 5 (read 1417 KB/s, write 993 KB/s).
func TestRZ57SequentialRatesMatchTable5(t *testing.T) {
	checkRate := func(write bool, wantKBs float64) {
		k := sim.NewKernel()
		bus := NewBus(k, "scsi", SCSIBusRate)
		d := NewDisk(k, RZ57, 256*64, bus) // 64 MB
		var elapsed sim.Time
		k.RunProc(func(p *sim.Proc) {
			buf := make([]byte, 1024*1024)
			start := p.Now()
			for i := int64(0); i < 16; i++ {
				var err error
				if write {
					err = d.WriteBlocks(p, i*256, buf)
				} else {
					err = d.ReadBlocks(p, i*256, buf)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			elapsed = p.Now() - start
		})
		got := 16 * 1024 / elapsed.Seconds()
		if got < wantKBs*0.97 || got > wantKBs*1.03 {
			t.Errorf("sequential rate (write=%v) = %.0f KB/s, want ~%.0f", write, got, wantKBs)
		}
	}
	checkRate(false, 1417)
	checkRate(true, 993)
}

func TestRandomSlowerThanSequential(t *testing.T) {
	run := func(random bool) sim.Time {
		k := sim.NewKernel()
		d := NewDisk(k, RZ57, 256*256, nil) // 256 MB
		rng := sim.NewRNG(42)
		var elapsed sim.Time
		k.RunProc(func(p *sim.Proc) {
			buf := make([]byte, BlockSize)
			start := p.Now()
			for i := 0; i < 100; i++ {
				blk := int64(i)
				if random {
					blk = rng.Int63n(d.NumBlocks())
				}
				if err := d.ReadBlocks(p, blk, buf); err != nil {
					t.Fatal(err)
				}
			}
			elapsed = p.Now() - start
		})
		return elapsed
	}
	seq, rnd := run(false), run(true)
	if rnd < 2*seq {
		t.Fatalf("random (%v) should be much slower than sequential (%v)", rnd, seq)
	}
}

func TestArmContentionSerializes(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 256*64, nil)
	var aDone, bDone sim.Time
	k.Go("a", func(p *sim.Proc) {
		buf := make([]byte, 1024*1024)
		if err := d.ReadBlocks(p, 0, buf); err != nil {
			t.Error(err)
		}
		aDone = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		buf := make([]byte, 1024*1024)
		if err := d.ReadBlocks(p, 256*32, buf); err != nil {
			t.Error(err)
		}
		bDone = p.Now()
	})
	k.Run()
	if bDone <= aDone {
		t.Fatalf("second request (%v) should complete after first (%v)", bDone, aDone)
	}
	if d.ArmWaitTotal() == 0 {
		t.Fatal("expected arm wait time under contention")
	}
}

func TestBusSharedAcrossDevices(t *testing.T) {
	k := sim.NewKernel()
	bus := NewBus(k, "scsi", SCSIBusRate)
	d1 := NewDisk(k, RZ57, 1024, bus)
	d2 := NewDisk(k, RZ58, 1024, bus)
	k.Go("a", func(p *sim.Proc) {
		buf := make([]byte, 256*BlockSize)
		if err := d1.ReadBlocks(p, 0, buf); err != nil {
			t.Error(err)
		}
	})
	k.Go("b", func(p *sim.Proc) {
		buf := make([]byte, 256*BlockSize)
		if err := d2.ReadBlocks(p, 0, buf); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if bus.BusyTotal() == 0 {
		t.Fatal("bus never used")
	}
}

func TestBusHoldBlocksTransfers(t *testing.T) {
	k := sim.NewKernel()
	bus := NewBus(k, "scsi", SCSIBusRate)
	d := NewDisk(k, RZ57, 1024, bus)
	var readDone sim.Time
	k.Go("swap", func(p *sim.Proc) {
		bus.Hold(p, 13*time.Second) // robot hogging the bus
	})
	k.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		buf := make([]byte, BlockSize)
		if err := d.ReadBlocks(p, 0, buf); err != nil {
			t.Error(err)
		}
		readDone = p.Now()
	})
	k.Run()
	if readDone < 13*time.Second {
		t.Fatalf("read finished at %v, should have waited for 13s bus hold", readDone)
	}
}

func TestFaultInjection(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	wantErr := errors.New("media failure")
	d.Fault = func(op string, blk int64) error {
		if op == "read" && blk == 5 {
			return wantErr
		}
		return nil
	}
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, BlockSize)
		if err := d.ReadBlocks(p, 5, buf); !errors.Is(err, wantErr) {
			t.Errorf("fault not injected: %v", err)
		}
		if err := d.ReadBlocks(p, 6, buf); err != nil {
			t.Errorf("unexpected fault: %v", err)
		}
		if err := d.WriteBlocks(p, 5, buf); err != nil {
			t.Errorf("write should not fault: %v", err)
		}
	})
}

func TestFaultCountersAndSentinels(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	d.Fault = func(op string, blk int64) error {
		switch op {
		case "read":
			return ErrTransientMedia
		case "write":
			return ErrPermanentMedia
		}
		return nil
	}
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, BlockSize)
		if err := d.ReadBlocks(p, 0, buf); !errors.Is(err, ErrTransientMedia) {
			t.Errorf("read fault = %v, want errors.Is ErrTransientMedia", err)
		}
		if err := d.WriteBlocks(p, 0, buf); !errors.Is(err, ErrPermanentMedia) {
			t.Errorf("write fault = %v, want errors.Is ErrPermanentMedia", err)
		}
	})
	s := d.Stats()
	if s.ReadFaults != 1 || s.WriteFaults != 1 {
		t.Fatalf("fault counters = %d/%d, want 1/1", s.ReadFaults, s.WriteFaults)
	}
	// Faulted operations must not be counted as completed transfers.
	if s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("faulted ops counted as transfers: reads=%d writes=%d", s.Reads, s.Writes)
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, 2*BlockSize)
		if err := d.WriteBlocks(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadBlocks(p, 0, buf); err != nil {
			t.Fatal(err)
		}
	})
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("ops = %d/%d, want 1/1", s.Reads, s.Writes)
	}
	if s.BytesRead != 2*BlockSize || s.BytesWritten != 2*BlockSize {
		t.Fatalf("bytes = %d/%d", s.BytesRead, s.BytesWritten)
	}
	if s.MediaTime == 0 {
		t.Fatal("media time not accumulated")
	}
}

// TestMaxTransferChunksInterleave verifies that two concurrent large
// transfers share the arm at MAXPHYS granularity: neither completes
// strictly before the other starts (the contention mechanism of Table 6).
func TestMaxTransferChunksInterleave(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 256*64, nil)
	var aDone, bDone, bStart sim.Time
	k.Go("a", func(p *sim.Proc) {
		buf := make([]byte, 1024*1024)
		if err := d.ReadBlocks(p, 0, buf); err != nil {
			t.Error(err)
		}
		aDone = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		bStart = p.Now()
		buf := make([]byte, 1024*1024)
		if err := d.ReadBlocks(p, 256*32, buf); err != nil {
			t.Error(err)
		}
		bDone = p.Now()
	})
	k.Run()
	// With whole-request atomicity, b would finish a full request-time
	// after a; with chunked interleaving they finish within a chunk or
	// two of each other.
	if bDone-aDone > aDone/4 {
		t.Fatalf("streams did not interleave: a done %v, b done %v", aDone, bDone)
	}
	if bStart != 0 {
		t.Fatalf("b started late: %v", bStart)
	}
	// Interleaving pays seeks: total time exceeds two back-to-back reads.
	if bDone < 2*733*time.Millisecond {
		t.Fatalf("interleaved total %v suspiciously fast", bDone)
	}
}

// TestSeekCurveConcave checks the square-root seek model: a half-stroke
// seek costs more than half of a full-stroke seek.
func TestSeekCurveConcave(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 100000, nil)
	measure := func(from, to int64) sim.Time {
		var dt sim.Time
		k.RunProc(func(p *sim.Proc) {
			buf := make([]byte, BlockSize)
			if err := d.ReadBlocks(p, from, buf); err != nil {
				t.Fatal(err)
			}
			t0 := p.Now()
			if err := d.ReadBlocks(p, to, buf); err != nil {
				t.Fatal(err)
			}
			dt = p.Now() - t0
		})
		return dt
	}
	half := measure(0, 50000)
	full := measure(0, 99999)
	if half*2 <= full {
		t.Fatalf("seek curve not concave: half %v, full %v", half, full)
	}
	if half >= full {
		t.Fatalf("half-stroke seek (%v) not cheaper than full (%v)", half, full)
	}
}

// BenchmarkDiskWrite1MB is the device layer's entry in `make bench-layers`:
// host cost and bytes allocated per 1 MB write through the volatile write
// cache, over a region written once before timing so the backing store is
// not growing.
func BenchmarkDiskWrite1MB(b *testing.B) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	d.EnableWriteCache(64)
	buf := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	k.RunProc(func(p *sim.Proc) {
		for blk := int64(0); blk < 1024; blk += 256 {
			if err := d.WriteBlocks(p, blk, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.WriteBlocks(p, int64(i%4)*256, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskAdopt1MB is the adopting twin of BenchmarkDiskWrite1MB in
// `make bench-layers`: a 1 MB image taken by reference, as a demand fetch
// writes a cache line. It runs write-through (a write cache copies, as
// WriteBlocks does), so what it measures is the timing model alone.
func BenchmarkDiskAdopt1MB(b *testing.B) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 1024, nil)
	img := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	k.RunProc(func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.AdoptBlocks(p, int64(i%4)*256, img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskShareLine1MB is a copy-out's turn in `make bench-layers`: a
// 1 MB line written in eight partial segments, then read once with
// ShareBlocks into a new image, which the disk keeps; the next line's first
// writes take the extents that share displaced. B/op is the image alone.
func BenchmarkDiskShareLine1MB(b *testing.B) {
	const line = 256
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 4*line, nil)
	pseg := make([]byte, 1<<20/8)
	b.ReportAllocs()
	b.SetBytes(1 << 20)
	k.RunProc(func(p *sim.Proc) {
		copyOut := func(blk int64) {
			for off := int64(0); off < line; off += line / 8 {
				if err := d.WriteBlocks(p, blk+off, pseg); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.ShareBlocks(p, blk, make([]byte, 1<<20)); err != nil {
				b.Fatal(err)
			}
		}
		copyOut(3 * line) // the extents the first timed line takes
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copyOut(int64(i%4) * line)
		}
	})
}
