package stripe

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dev"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestBlockDevContract checks, for every BlockDev the data path runs on,
// the two properties the dev.BlockDev comment states and buffer reuse
// relies on: WriteBlocks keeps no reference to the caller's buffer, and
// ReadBlocks overwrites every byte of it. Each device has an AdoptBlocks and a
// ShareBlocks row too, for the dev.Adopter contract: what was adopted reads
// back, ShareBlocks reads what was written, and a later write into the range
// leaves the adopted or shared-into buffer as it was. A device that
// takes vectored transfers (dev.Vectored) has a parts row: a write and a read
// over parts must be their concatenation's, in bytes, virtual time,
// DiskStats, spans and latency samples.
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
		{"disk media-write hook", func(k *sim.Kernel) dev.BlockDev {
			d := dev.NewDisk(k, dev.RZ57, 128, nil)
			d.Cut = &dev.Cut{Target: 1} // a cut at every block: each lands one at a time, copied
			d.Cut.At = func() { d.Cut.Target++ }
			return d
		}},
		{"concat", func(k *sim.Kernel) dev.BlockDev {
			return must(New(disks(k, 3)...))
		}},
		{"interleave", func(k *sim.Kernel) dev.BlockDev {
			return must(NewInterleave(unit, false, disks(k, 4)...))
		}},
		{"interleave parity", func(k *sim.Kernel) dev.BlockDev {
			return must(NewInterleave(unit, true, disks(k, 4)...))
		}},
		{"interleave parity, spindle 2 failed", func(k *sim.Kernel) dev.BlockDev {
			il := must(NewInterleave(unit, true, disks(k, 4)...))
			il.setFailed(2, true)
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
		t.Run(tc.name+", ShareBlocks", func(t *testing.T) {
			k := sim.NewKernel()
			d := tc.make(k)
			k.RunProc(func(p *sim.Proc) {
				// The same two whole extents, written and then shared into a
				// dirty buffer, which must read them and stay as it is when
				// the range is written again.
				const blk, nb = 64, 32
				if err := d.WriteBlocks(p, blk, pattern(nb)); err != nil {
					t.Fatalf("write: %v", err)
				}
				img := bytes.Repeat([]byte{0xDB}, nb*dev.BlockSize)
				if err := d.(dev.Adopter).ShareBlocks(p, blk, img); err != nil {
					t.Fatalf("share: %v", err)
				}
				if !bytes.Equal(img, pattern(nb)) {
					t.Error("ShareBlocks did not read what was written")
				}
				over := bytes.Repeat([]byte{0xEE}, 3*dev.BlockSize)
				if err := d.WriteBlocks(p, blk+14, over); err != nil { // across the two extents
					t.Fatalf("write: %v", err)
				}
				if !bytes.Equal(img, pattern(nb)) {
					t.Error("a write into the shared range changed the buffer shared into")
				}
				want := pattern(nb)
				copy(want[14*dev.BlockSize:], over)
				check(t, p, d, blk, want)
			})
		})
		if _, ok := tc.make(sim.NewKernel()).(dev.Vectored); ok {
			t.Run(tc.name+", parts", func(t *testing.T) { checkParts(t, tc.make) })
		}
	}
}

// checkParts writes 58 blocks from block 16 as six parts — some kept, one a
// whole aligned extent, two straddling a 64 KB chunk boundary — and reads
// them back as three others, on one device, and as single buffers on a twin:
// both must read the same bytes and leave the same virtual time, DiskStats,
// spans and latency histograms. The parts not kept are overwritten at once.
func checkParts(t *testing.T, newDev func(k *sim.Kernel) dev.BlockDev) {
	const blk, nb = 16, 58
	want := make([]byte, nb*dev.BlockSize)
	for i := range want {
		want[i] = byte(i*13 + i>>9)
	}
	run := func(vectored bool) (got []byte, trace string) {
		k := sim.NewKernel()
		d := newDev(k).(*dev.Disk)
		o := obs.New(k)
		o.EnableTrace()
		d.SetObs(o, "")
		buf := bytes.Clone(want)
		got = bytes.Repeat([]byte{0xDB}, len(want))
		cut := func(b []byte, keep []bool, at ...int64) []dev.Part {
			var parts []dev.Part
			for i, from := range at {
				to := int64(nb)
				if i+1 < len(at) {
					to = at[i+1]
				}
				parts = append(parts, dev.Part{Blk: blk + from, Buf: b[from*dev.BlockSize : to*dev.BlockSize], Keep: keep != nil && keep[i]})
			}
			return parts
		}
		k.RunProc(func(p *sim.Proc) {
			var err error
			if vectored {
				err = d.WriteParts(p, cut(buf, []bool{false, true, true, true, false, true}, 0, 4, 20, 32, 48, 50))
				clear(buf[:4*dev.BlockSize])
				clear(buf[48*dev.BlockSize : 50*dev.BlockSize])
			} else {
				err = d.WriteBlocks(p, blk, buf)
				clear(buf)
			}
			if err != nil {
				t.Fatal(err)
			}
			if vectored {
				err = d.ReadParts(p, cut(got, nil, 0, 1, 30))
			} else {
				err = d.ReadBlocks(p, blk, got)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		trace = fmt.Sprintf("%v %+v", k.Now(), d.Stats())
		var spans bytes.Buffer
		if err := o.WriteChromeTrace(&spans); err != nil {
			t.Fatal(err)
		}
		trace += "\n" + spans.String()
		for _, h := range o.Histograms() {
			trace += fmt.Sprintf("\n%+v", *h)
		}
		return got, trace
	}
	gotParts, traceParts := run(true)
	gotWhole, traceWhole := run(false)
	if !bytes.Equal(gotParts, want) || !bytes.Equal(gotWhole, want) {
		t.Error("parts or their concatenation did not read back what was written")
	}
	if traceParts != traceWhole {
		t.Errorf("parts and their concatenation differ:\n%s\nwant\n%s", traceParts, traceWhole)
	}
}
