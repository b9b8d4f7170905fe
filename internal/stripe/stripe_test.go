package stripe

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// must returns the farm of a New or NewInterleave call, panicking on its
// error.
func must(f *Farm, err error) *Farm {
	if err != nil {
		panic(err)
	}
	return f
}

// setFailed marks component i failed (or repaired). With parity the farm
// keeps serving reads in degraded mode; without parity requests touching
// the component return ErrComponentFailed.
func (f *Farm) setFailed(i int, down bool) { f.failed[i] = down }

// components reports the number of underlying devices.
func (f *Farm) components() int { return len(f.devs) }

func newConcat(k *sim.Kernel, sizes ...int64) (*Farm, []*dev.Disk) {
	var devs []dev.BlockDev
	var disks []*dev.Disk
	for _, n := range sizes {
		d := dev.NewDisk(k, dev.RZ57, n, nil)
		devs = append(devs, d)
		disks = append(disks, d)
	}
	return must(New(devs...)), disks
}

func TestCapacityIsSum(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 100, 200, 50)
	if c.NumBlocks() != 350 {
		t.Fatalf("NumBlocks = %d, want 350", c.NumBlocks())
	}
	if c.components() != 3 {
		t.Fatalf("Components = %d, want 3", c.components())
	}
}

func TestRoundTripWithinOneComponent(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 100, 100)
	k.RunProc(func(p *sim.Proc) {
		w := bytes.Repeat([]byte{7}, 4*dev.BlockSize)
		if err := c.WriteBlocks(p, 120, w); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, 4*dev.BlockSize)
		if err := c.ReadBlocks(p, 120, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("mismatch")
		}
	})
}

func TestSpanningRequestSplits(t *testing.T) {
	k := sim.NewKernel()
	c, disks := newConcat(k, 10, 10)
	k.RunProc(func(p *sim.Proc) {
		w := make([]byte, 6*dev.BlockSize)
		for i := range w {
			w[i] = byte(i % 127)
		}
		if err := c.WriteBlocks(p, 7, w); err != nil { // blocks 7..12: 3 on disk0, 3 on disk1
			t.Fatal(err)
		}
		r := make([]byte, 6*dev.BlockSize)
		if err := c.ReadBlocks(p, 7, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("spanning round trip mismatch")
		}
	})
	if disks[0].Stats().Writes == 0 || disks[1].Stats().Writes == 0 {
		t.Fatal("write did not split across both components")
	}
	// Verify placement: component 1 block 0 holds logical block 10.
	k2 := sim.NewKernel()
	_ = k2
	if disks[1].Stats().BytesWritten != 3*dev.BlockSize {
		t.Fatalf("component 1 got %d bytes, want %d", disks[1].Stats().BytesWritten, 3*dev.BlockSize)
	}
}

func TestRequestSpanningThreeComponents(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 4, 4, 4)
	k.RunProc(func(p *sim.Proc) {
		w := make([]byte, 10*dev.BlockSize)
		for i := range w {
			w[i] = byte(i % 31)
		}
		if err := c.WriteBlocks(p, 1, w); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, 10*dev.BlockSize)
		if err := c.ReadBlocks(p, 1, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("mismatch across three components")
		}
	})
}

func TestOutOfRange(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 10, 10)
	k.RunProc(func(p *sim.Proc) {
		buf := make([]byte, dev.BlockSize)
		if err := c.ReadBlocks(p, 20, buf); err == nil {
			t.Error("past-end read accepted")
		}
		if err := c.WriteBlocks(p, -1, buf); err == nil {
			t.Error("negative write accepted")
		}
		if err := c.WriteBlocks(p, 19, make([]byte, 2*dev.BlockSize)); err == nil {
			t.Error("spilling write accepted")
		}
		if err := c.ReadBlocks(p, 0, make([]byte, 5)); err == nil {
			t.Error("unaligned buffer accepted")
		}
	})
}

func TestIndependentArmsAllowParallelism(t *testing.T) {
	// Two 1 MB reads on different spindles should overlap in time; on one
	// spindle they serialize. This is why Table 6 improves with a second
	// staging disk.
	elapsed := func(two bool) sim.Time {
		k := sim.NewKernel()
		var c *Farm
		if two {
			c, _ = newConcat(k, 512, 512)
		} else {
			c, _ = newConcat(k, 1024)
		}
		k.Go("a", func(p *sim.Proc) {
			buf := make([]byte, 256*dev.BlockSize)
			if err := c.ReadBlocks(p, 0, buf); err != nil {
				t.Error(err)
			}
		})
		k.Go("b", func(p *sim.Proc) {
			buf := make([]byte, 256*dev.BlockSize)
			if err := c.ReadBlocks(p, 512, buf); err != nil {
				t.Error(err)
			}
		})
		k.Run()
		return k.Now()
	}
	one, two := elapsed(false), elapsed(true)
	if two >= one {
		t.Fatalf("two spindles (%v) not faster than one (%v)", two, one)
	}
}

func TestAppendExtendsAddressSpace(t *testing.T) {
	k := sim.NewKernel()
	c, _ := newConcat(k, 50)
	d2 := dev.NewDisk(k, dev.RZ58, 30, nil)
	start, err := c.Append(d2)
	if err != nil || start != 50 || c.NumBlocks() != 80 || c.components() != 2 {
		t.Fatalf("append: start=%d total=%d comps=%d err=%v", start, c.NumBlocks(), c.components(), err)
	}
	k.RunProc(func(p *sim.Proc) {
		w := bytes.Repeat([]byte{9}, 2*dev.BlockSize)
		if err := c.WriteBlocks(p, 60, w); err != nil {
			t.Fatal(err)
		}
		r := make([]byte, 2*dev.BlockSize)
		if err := c.ReadBlocks(p, 60, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r) {
			t.Fatal("appended device round trip failed")
		}
		// The appended device actually holds the data.
		r2 := make([]byte, 2*dev.BlockSize)
		if err := d2.ReadBlocks(p, 10, r2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w, r2) {
			t.Fatal("data not on appended device")
		}
	})
}

// TestAppendToStripedFarmRefused: every stripe row spreads over all
// spindles, so a striped farm cannot grow in place; it says so with a typed
// error and stays as it was.
func TestAppendToStripedFarmRefused(t *testing.T) {
	k := sim.NewKernel()
	il, _ := newInterleave(k, 4, true, 3, 64)
	total := il.NumBlocks()
	if _, err := il.Append(dev.NewDisk(k, dev.RZ57, 64, nil)); !errors.Is(err, ErrStriped) {
		t.Fatalf("Append on a striped farm: %v, want ErrStriped", err)
	}
	if il.NumBlocks() != total || il.components() != 3 {
		t.Fatalf("refused Append changed the farm: %d blocks, %d components", il.NumBlocks(), il.components())
	}
}

// plainDev is a BlockDev without the vectored calls: the embedded interface
// promotes ReadBlocks, WriteBlocks and NumBlocks alone.
type plainDev struct{ dev.BlockDev }

// TestComponentsMustBeVectored: a farm sends coalesced transfers down as
// lists of the caller's slices, so every constructor refuses a component
// that cannot take them, and a refused Append leaves the farm as it was.
func TestComponentsMustBeVectored(t *testing.T) {
	k := sim.NewKernel()
	disk := func() *dev.Disk { return dev.NewDisk(k, dev.RZ57, 64, nil) }
	if _, err := New(disk(), plainDev{disk()}); err == nil {
		t.Error("New accepted a component without ReadParts/WriteParts")
	}
	if _, err := NewInterleave(4, true, disk(), disk(), plainDev{disk()}); err == nil {
		t.Error("NewInterleave accepted a component without ReadParts/WriteParts")
	}
	c, _ := newConcat(k, 64)
	if _, err := c.Append(plainDev{disk()}); err == nil || c.components() != 1 || c.NumBlocks() != 64 {
		t.Errorf("Append of a component without ReadParts/WriteParts: %v, %d components, %d blocks", err, c.components(), c.NumBlocks())
	}
}
