package fault

import (
	"bytes"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// TestDegradedReadThroughFaultedArm injects a per-spindle fault plan on
// one arm of a RAID-5 farm and asserts reads still return correct data:
// the faulted arm's extents are reconstructed from the surviving data
// units and parity instead of failing the request.
func TestDegradedReadThroughFaultedArm(t *testing.T) {
	k := sim.NewKernel()
	var disks []dev.BlockDev
	for i := 0; i < 4; i++ {
		disks = append(disks, dev.NewDisk(k, dev.RZ57, 512, nil))
	}
	farm, err := stripe.NewInterleave(4, true, disks...)
	if err != nil {
		t.Fatal(err)
	}

	// Every read of arm 1 is refused permanently: a dead spindle that was
	// never administratively marked failed.
	pl := NewPlan(Config{Seed: 7, PermanentReadRate: 0.999999})
	pl.installDisk("arm[1]", disks[1].(*dev.Disk))

	const nb = 96 // spans many stripe rows, all arms
	want := make([]byte, nb*dev.BlockSize)
	for i := range want {
		want[i] = byte(i*31 + 7)
	}
	k.RunProc(func(p *sim.Proc) {
		if err := farm.WriteBlocks(p, 0, want); err != nil {
			t.Fatalf("populate: %v", err)
		}
		got := make([]byte, len(want))
		if err := farm.ReadBlocks(p, 0, got); err != nil {
			t.Fatalf("degraded read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("degraded read returned wrong data")
		}
	})
	if c := pl.DeviceCounts("arm[1]"); c.Permanent == 0 {
		t.Fatalf("expected injected read faults on arm 1, got %+v", c)
	}
	k.Stop()
}
