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
// ReadBlocks overwrites every byte of it.
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
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			d := tc.make(k)
			k.RunProc(func(p *sim.Proc) {
				// Unaligned, several stripe rows long, crossing the
				// concatenated farm's first component boundary: partial
				// rows, full rows and coalesced transfers all occur.
				const blk, nb = 50, 43
				want := make([]byte, nb*dev.BlockSize)
				for i := range want {
					want[i] = byte(i*13 + i>>9)
				}
				buf := bytes.Clone(want)
				if err := d.WriteBlocks(p, blk, buf); err != nil {
					t.Fatalf("write: %v", err)
				}
				for i := range buf {
					buf[i] = 0xDB // the caller reuses its buffer at once
				}
				// Read a wider range than was written, into a dirty buffer.
				const pre, post = 9, 7
				got := bytes.Repeat([]byte{0xDB}, (pre+nb+post)*dev.BlockSize)
				if err := d.ReadBlocks(p, blk-pre, got); err != nil {
					t.Fatalf("read: %v", err)
				}
				zero := func(b []byte) bool { return len(bytes.Trim(b, "\x00")) == 0 }
				if !zero(got[:pre*dev.BlockSize]) || !zero(got[(pre+nb)*dev.BlockSize:]) {
					t.Error("never-written blocks did not read back as zeroes into a dirty buffer")
				}
				if !bytes.Equal(got[pre*dev.BlockSize:(pre+nb)*dev.BlockSize], want) {
					t.Error("read differs from what was written: the device kept the caller's buffer, or left bytes of the read buffer unfilled")
				}
			})
		})
	}
}
