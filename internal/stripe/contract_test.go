package stripe

import (
	"bytes"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// TestBlockDevContract checks, for every BlockDev the data path runs on,
// the two properties the dev.BlockDev comment states and buffer reuse
// relies on: WriteBlocks keeps no reference to the caller's buffer, and
// ReadBlocks overwrites every byte of it. Each device has an AdoptBlocks row
// too, for the dev.Adopter contract: what was adopted reads back, and a later
// write into the range leaves the adopted buffer as it was.
func TestBlockDevContract(t *testing.T) {
	const unit = 4
	disks := func(k *sim.Kernel, n int) []dev.BlockDev {
		var ds []dev.BlockDev
		for i := 0; i < n; i++ {
			ds = append(ds, dev.NewDisk(k, dev.RZ57, 64, nil))
		}
		return ds
	}
	for _, tc := range []struct {
		name string
		make func(k *sim.Kernel) dev.BlockDev
	}{
		{"disk write-through", func(k *sim.Kernel) dev.BlockDev {
			return dev.NewDisk(k, dev.RZ57, 128, nil)
		}},
		{"disk write-cache", func(k *sim.Kernel) dev.BlockDev {
			d := dev.NewDisk(k, dev.RZ57, 128, nil)
			d.EnableWriteCache(8) // smaller than the write: some blocks destage, some stay cached
			return d
		}},
		{"concat", func(k *sim.Kernel) dev.BlockDev {
			return Must(New(disks(k, 3)...))
		}},
		{"interleave", func(k *sim.Kernel) dev.BlockDev {
			return Must(NewInterleave(unit, false, disks(k, 4)...))
		}},
		{"interleave parity", func(k *sim.Kernel) dev.BlockDev {
			return Must(NewInterleave(unit, true, disks(k, 4)...))
		}},
		{"interleave parity, spindle 2 failed", func(k *sim.Kernel) dev.BlockDev {
			il := Must(NewInterleave(unit, true, disks(k, 4)...))
			il.SetFailed(2, true)
			return il
		}},
	} {
		pattern := func(nb int) []byte {
			b := make([]byte, nb*dev.BlockSize)
			for i := range b {
				b[i] = byte(i*13 + i>>9)
			}
			return b
		}
		// check reads a wider range than [blk, blk+len(want)) into a dirty
		// buffer: zeroes around it, want inside.
		check := func(t *testing.T, p *sim.Proc, d dev.BlockDev, blk int64, want []byte) {
			const pre, post = 9, 7
			got := bytes.Repeat([]byte{0xDB}, pre*dev.BlockSize+len(want)+post*dev.BlockSize)
			if err := d.ReadBlocks(p, blk-pre, got); err != nil {
				t.Fatalf("read: %v", err)
			}
			zero := func(b []byte) bool { return len(bytes.Trim(b, "\x00")) == 0 }
			if !zero(got[:pre*dev.BlockSize]) || !zero(got[pre*dev.BlockSize+len(want):]) {
				t.Error("never-written blocks did not read back as zeroes into a dirty buffer")
			}
			if !bytes.Equal(got[pre*dev.BlockSize:pre*dev.BlockSize+len(want)], want) {
				t.Error("read differs from what was written: the device kept the caller's buffer, or left bytes of the read buffer unfilled")
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d := tc.make(k)
			k.RunProc(func(p *sim.Proc) {
				// Unaligned, several stripe rows long, crossing the
				// concatenated farm's first component boundary: partial
				// rows, full rows and coalesced transfers all occur.
				const blk, nb = 50, 43
				want := pattern(nb)
				buf := bytes.Clone(want)
				if err := d.WriteBlocks(p, blk, buf); err != nil {
					t.Fatalf("write: %v", err)
				}
				for i := range buf {
					buf[i] = 0xDB // the caller reuses its buffer at once
				}
				check(t, p, d, blk, want)
			})
		})
		t.Run(tc.name+", AdoptBlocks", func(t *testing.T) {
			k := sim.NewKernel()
			d := tc.make(k)
			k.RunProc(func(p *sim.Proc) {
				// Two whole 64 KB extents at the start of the concatenated
				// farm's second component: what a disk or a one-component
				// concatenated request takes by reference.
				const blk, nb = 64, 32
				img := pattern(nb)
				if err := d.(dev.Adopter).AdoptBlocks(p, blk, img); err != nil {
					t.Fatalf("adopt: %v", err)
				}
				check(t, p, d, blk, pattern(nb))
				over := bytes.Repeat([]byte{0xEE}, 3*dev.BlockSize)
				if err := d.WriteBlocks(p, blk+14, over); err != nil { // across the two extents
					t.Fatalf("write: %v", err)
				}
				if !bytes.Equal(img, pattern(nb)) {
					t.Error("a write into the adopted range changed the adopted buffer")
				}
				want := pattern(nb)
				copy(want[14*dev.BlockSize:], over)
				check(t, p, d, blk, want)
			})
		})
	}
}
