package fault

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/sim"
)

// replay records the error sequence a fault plan produces for a fixed
// operation schedule.
func replay(seed uint64) []string {
	pl := NewPlan(Config{
		Seed:               seed,
		TransientReadRate:  0.2,
		TransientWriteRate: 0.2,
		PermanentReadRate:  0.02,
		PermanentWriteRate: 0.02,
		LoadFailRate:       0.1,
		MaxBurst:           3,
	})
	in := pl.injector("dev")
	var out []string
	for i := 0; i < 400; i++ {
		op := "read"
		if i%3 == 1 {
			op = "write"
		} else if i%17 == 2 {
			op = "load"
		}
		err := in.decide(op, target{vol: i % 4, seg: int64(i % 16)})
		if err == nil {
			out = append(out, "ok")
		} else {
			out = append(out, err.Error())
		}
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	a, b := replay(42), replay(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
	c := replay(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestTransientBurstBounded(t *testing.T) {
	pl := NewPlan(Config{Seed: 7, TransientReadRate: 1.0, MaxBurst: 4})
	in := pl.injector("dev")
	tgt := target{vol: 0, seg: 5}
	// With rate 1.0 every fresh draw faults, but an individual burst must
	// clear within MaxBurst attempts; confirm each error is transient.
	for i := 0; i < 20; i++ {
		err := in.decide("read", tgt)
		if !errors.Is(err, dev.ErrTransientMedia) {
			t.Fatalf("attempt %d: got %v, want transient", i, err)
		}
	}
	if in.counts.Transient != 20 {
		t.Fatalf("transient count = %d, want 20", in.counts.Transient)
	}
	// Writes to a different op key are independent bursts.
	if err := in.decide("write", tgt); err != nil && !errors.Is(err, dev.ErrTransientMedia) {
		t.Fatalf("write fault has wrong class: %v", err)
	}
}

func TestBurstClearsWithinMaxBurst(t *testing.T) {
	// Force one burst, then drop the rate to zero: the burst must clear
	// after at most MaxBurst failures.
	pl := NewPlan(Config{Seed: 9, TransientReadRate: 1.0, MaxBurst: 3})
	in := pl.injector("dev")
	tgt := target{vol: 1, seg: 2}
	if err := in.decide("read", tgt); !errors.Is(err, dev.ErrTransientMedia) {
		t.Fatalf("first attempt: %v", err)
	}
	in.cfg.TransientReadRate = 0
	fails := 1
	for i := 0; i < 10; i++ {
		if err := in.decide("read", tgt); err != nil {
			fails++
		} else {
			break
		}
	}
	if fails > 3 {
		t.Fatalf("burst lasted %d failures, MaxBurst is 3", fails)
	}
}

func TestPermanentFaultSticks(t *testing.T) {
	pl := NewPlan(Config{Seed: 1, PermanentWriteRate: 1.0})
	in := pl.injector("juke")
	tgt := target{vol: 2, seg: 7}
	if err := in.decide("write", tgt); !errors.Is(err, dev.ErrPermanentMedia) {
		t.Fatalf("first write: %v, want permanent", err)
	}
	// Reads of the same region now fail permanently too, even with a zero
	// read rate — the media is bad, not the operation.
	in.cfg.PermanentWriteRate = 0
	if err := in.decide("read", tgt); !errors.Is(err, dev.ErrPermanentMedia) {
		t.Fatalf("read of bad region: %v, want permanent", err)
	}
	if err := in.decide("write", target{vol: 2, seg: 8}); err != nil {
		t.Fatalf("neighbouring segment affected: %v", err)
	}
	if in.counts.BadSegs != 1 {
		t.Fatalf("BadSegs = %d, want 1", in.counts.BadSegs)
	}
	if in.counts.Permanent != 2 {
		t.Fatalf("Permanent = %d, want 2", in.counts.Permanent)
	}
}

func TestLoadFaults(t *testing.T) {
	pl := NewPlan(Config{Seed: 3, LoadFailRate: 1.0})
	in := pl.injector("juke")
	err := in.decide("load", target{vol: 1, seg: -1})
	if !errors.Is(err, dev.ErrTransientMedia) {
		t.Fatalf("load fault: %v, want transient", err)
	}
	if in.counts.LoadFails != 1 {
		t.Fatal("load fault not counted")
	}
}

// installDisk compiles the plan into d's Fault hook. Disk faults address
// block regions (one fault target per 256-block group), so a permanent
// fault takes out a region the size of a typical request, not the whole
// device.
func (pl *Plan) installDisk(name string, d *dev.Disk) {
	in := pl.injector(name)
	d.Fault = func(op string, blk int64) error {
		return in.decide(op, target{vol: -1, seg: blk >> 8})
	}
}

func TestInstallHooksAndCounts(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlan(Config{Seed: 11, TransientReadRate: 1.0, MaxBurst: 1})
	d := dev.NewDisk(k, dev.RZ57, 1024, nil)
	j := jukebox.MustNew(k, jukebox.MO6300, 2, 2, 8, 16*dev.BlockSize, nil)
	pl.installDisk("disk0", d)
	pl.InstallJukebox("juke0", j)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, dev.BlockSize)
		if err := d.ReadBlocks(p, 0, buf); !errors.Is(err, dev.ErrTransientMedia) {
			t.Fatalf("disk read: %v", err)
		}
		sbuf := make([]byte, 16*dev.BlockSize)
		if err := j.ReadSegment(p, 0, 0, sbuf); !errors.Is(err, dev.ErrTransientMedia) {
			t.Fatalf("jukebox read: %v", err)
		}
	})
	if got := pl.DeviceCounts("disk0").Transient; got != 1 {
		t.Fatalf("disk0 transient = %d, want 1", got)
	}
	if got := pl.DeviceCounts("juke0").Transient; got != 1 {
		t.Fatalf("juke0 transient = %d, want 1", got)
	}
	if ds := d.Stats(); ds.ReadFaults != 1 {
		t.Fatalf("disk ReadFaults = %d, want 1", ds.ReadFaults)
	}
	if js := j.Stats(); js.ReadFaults != 1 {
		t.Fatalf("jukebox ReadFaults = %d, want 1", js.ReadFaults)
	}
	k.Stop()
}

func TestOutageWindow(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlan(Config{Seed: 5})
	j := jukebox.MustNew(k, jukebox.MO6300, 2, 2, 8, 16*dev.BlockSize, nil)
	// Two swaps load volume 0 into the write drive (drive 0) and volume
	// 1 into drive 1 well before the window opens.
	pl.AddOutage(j, Outage{Drive: 1, Start: 60 * sim.Time(time.Second), End: 90 * sim.Time(time.Second)})
	pl.Start(k)
	loaded := func(when string, want0, want1 bool) {
		t.Helper()
		if got0, got1 := j.VolumeLoaded(0), j.VolumeLoaded(1); got0 != want0 || got1 != want1 {
			t.Fatalf("%s: volumes 0, 1 loaded in healthy drives = %v, %v; want %v, %v",
				when, got0, got1, want0, want1)
		}
	}
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, 16*dev.BlockSize)
		if err := j.WriteSegment(p, 0, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := j.ReadSegment(p, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
		if p.Now() >= 60*sim.Time(time.Second) {
			t.Fatalf("volumes loaded at %v, after the window opened", p.Now())
		}
		loaded("before window", true, true)
		p.Sleep(75*sim.Time(time.Second) - p.Now())
		loaded("inside window", true, false)
		p.Sleep(25 * sim.Time(time.Second))
		loaded("after window", true, true)
	})
	k.Stop()
}
