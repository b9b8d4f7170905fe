package stripe

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// A cache line adopted from a lent segment image: segLine blocks (1 MB) at
// segment 1, on 16-block stripe units with three data lanes a row (48
// blocks), so the line starts and ends mid-row — two partial rows around
// four full ones.
const (
	unitBlocks = 16
	segLine    = 256
	lineStart  = segLine
	farmSpan   = 3 * segLine // segments 0-2 are what the tests read back
)

// adoptedLine builds a farm (the 4-spindle parity farm, or a 3-spindle one
// without parity), writes segments 0 and 1 so its disks own the extents the
// line displaces, adopts a 1 MB image at segment 1 and returns the farm, its
// disks, the image and the model of what segments 0-2 must read as.
func adoptedLine(t *testing.T, p *sim.Proc, parity bool) (*Farm, []*dev.Disk, []byte, []byte) {
	t.Helper()
	n := 3
	if parity {
		n = 4
	}
	f, disks := newInterleave(p.Kernel(), unitBlocks, parity, n, 1024)
	model := make([]byte, farmSpan*dev.BlockSize)
	for i := range 2 * segLine * dev.BlockSize {
		model[i] = byte(i*7 + i>>12)
	}
	if err := f.WriteBlocks(p, 0, bytes.Clone(model[:2*segLine*dev.BlockSize])); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, segLine*dev.BlockSize)
	for i := range img {
		img[i] = byte(i*13 + i>>12 + 1)
	}
	if err := f.AdoptBlocks(p, lineStart, img); err != nil {
		t.Fatal(err)
	}
	copy(model[lineStart*dev.BlockSize:], img)
	return f, disks, img, model
}

// readsAs reads segments 0-2 back and compares them with the model.
func readsAs(t *testing.T, p *sim.Proc, f *Farm, model []byte, what string) {
	t.Helper()
	got := bytes.Repeat([]byte{0xEE}, len(model))
	if err := f.ReadBlocks(p, 0, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range got {
		if got[i] != model[i] {
			t.Fatalf("%s: block %d differs from what was written", what, i/dev.BlockSize)
		}
	}
}

// overwrite writes fresh bytes at [blk, blk+nb) through the farm and into
// the model, and checks that the adopted image is as it was lent.
func overwrite(t *testing.T, p *sim.Proc, f *Farm, model, img, lent []byte, blk, nb int64) {
	t.Helper()
	buf := make([]byte, nb*dev.BlockSize)
	for i := range buf {
		buf[i] = byte(i*29 + int(blk))
	}
	if err := f.WriteBlocks(p, blk, buf); err != nil {
		t.Fatal(err)
	}
	copy(model[blk*dev.BlockSize:], buf)
	clear(buf) // the farm must have copied it
	if !bytes.Equal(img, lent) {
		t.Fatalf("writing [%d,%d) changed the adopted image", blk, blk+nb)
	}
}

func forBothLayouts(t *testing.T, test func(t *testing.T, parity bool)) {
	for _, parity := range []bool{true, false} {
		name := "striped"
		if parity {
			name = "parity"
		}
		t.Run(name, func(t *testing.T) { test(t, parity) })
	}
}

// TestAdoptedLinePartialRowWrite (a): a write over the adopted line that
// covers its lanes partly at both ends — partial rows, and a lane of the
// never-written segment 2 — leaves the image as it was lent, and the farm
// reads back the new data over the image.
func TestAdoptedLinePartialRowWrite(t *testing.T) {
	forBothLayouts(t, func(t *testing.T, parity bool) {
		sim.NewKernel().RunProc(func(p *sim.Proc) {
			f, _, img, model := adoptedLine(t, p, parity)
			lent := bytes.Clone(img)
			readsAs(t, p, f, model, "after adoption")
			overwrite(t, p, f, model, img, lent, lineStart+8, 2*segLine+24-(lineStart+8))
			readsAs(t, p, f, model, "after a partial-row write over the line")
		})
	})
}

// TestAdoptedLineSmallWrite (b): the same for a 4-block write inside one
// adopted extent, which copies the rest of the extent in.
func TestAdoptedLineSmallWrite(t *testing.T) {
	forBothLayouts(t, func(t *testing.T, parity bool) {
		sim.NewKernel().RunProc(func(p *sim.Proc) {
			f, _, img, model := adoptedLine(t, p, parity)
			lent := bytes.Clone(img)
			overwrite(t, p, f, model, img, lent, lineStart+44, 4)
			readsAs(t, p, f, model, "after a 4-block write")
		})
	})
}

// TestAdoptedLineDegradedRead (c): with any one spindle failed, the parity
// farm reconstructs the adopted line's bytes from the survivors, around a
// small write into it too.
func TestAdoptedLineDegradedRead(t *testing.T) {
	sim.NewKernel().RunProc(func(p *sim.Proc) {
		f, disks, img, model := adoptedLine(t, p, true)
		lent := bytes.Clone(img)
		overwrite(t, p, f, model, img, lent, lineStart+44, 4)
		for i := range disks {
			f.setFailed(i, true)
			readsAs(t, p, f, model, "degraded read")
			f.setFailed(i, false)
		}
	})
}

// TestNoDiskKeepsAFreeListBuffer (d): every buffer the farm takes back is
// overwritten (poisonFreed), so a disk that kept a parity unit or row image
// by reference would show it as a row whose parity no longer matches its
// data. Every row stays consistent through adoption and each write shape.
func TestNoDiskKeepsAFreeListBuffer(t *testing.T) {
	if !poisonFreed {
		t.Fatal("poisonFreed is off: a kept free-list buffer would go unnoticed")
	}
	sim.NewKernel().RunProc(func(p *sim.Proc) {
		f, disks, img, model := adoptedLine(t, p, true)
		lent := bytes.Clone(img)
		consistent := func(what string) {
			t.Helper()
			const unitB = unitBlocks * dev.BlockSize
			rows := farmSpan/(3*unitBlocks) + 1 // the rows segments 0-2 touch
			xor := make([]byte, rows*unitB)
			raw := make([]byte, len(xor))
			for _, d := range disks {
				if err := d.ReadBlocks(p, 0, raw); err != nil {
					t.Fatal(err)
				}
				xorInto(xor, raw)
			}
			for i, b := range xor {
				if b != 0 {
					t.Fatalf("%s: row %d's parity does not match its data", what, i/unitB)
				}
			}
		}
		consistent("after adoption")
		overwrite(t, p, f, model, img, lent, 0, 96) // two full rows
		consistent("after a full-row write")
		overwrite(t, p, f, model, img, lent, lineStart+8, 100)
		consistent("after a partial-row write")
		// Row 6's lane 1 is on spindle 1: with it failed, the write lives in
		// the parity unit alone, rebuilt from the old parity and row image.
		f.setFailed(1, true)
		overwrite(t, p, f, model, img, lent, lineStart+60, 4)
		readsAs(t, p, f, model, "after a degraded write")
	})
}

// TestOnlyAConcatenatedFarmShares (e): ShareBlocks of a 1 MB line on a
// striped or parity farm keeps nothing: the buffer shared into changing
// afterwards, which the dev.Adopter contract forbids, changes no read. A
// concatenated farm hands the read down kept, so there it does: its disk
// keeps the whole extents of the buffer in place of its own.
func TestOnlyAConcatenatedFarmShares(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parity bool
		concat bool
	}{{"striped", false, false}, {"parity", true, false}, {"concatenated", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			// The buffer shared into is cleared below on purpose, against
			// the promise, to see whether the farm kept it: under an audit
			// of its own, which fails exactly when a disk recorded it.
			audit := dev.Audit
			dev.Audit = &dev.HandOvers{}
			defer func() { dev.Audit = audit }()
			sim.NewKernel().RunProc(func(p *sim.Proc) {
				var f *Farm
				if tc.concat {
					k := p.Kernel()
					f = must(New(dev.NewDisk(k, dev.RZ57, 2*segLine, nil), dev.NewDisk(k, dev.RZ57, 2*segLine, nil)))
				} else {
					n := 3
					if tc.parity {
						n = 4
					}
					f, _ = newInterleave(p.Kernel(), unitBlocks, tc.parity, n, 1024)
				}
				line := make([]byte, segLine*dev.BlockSize)
				for i := range line {
					line[i] = byte(i*13 + i>>12 + 1)
				}
				if err := f.WriteBlocks(p, lineStart, bytes.Clone(line)); err != nil {
					t.Fatal(err)
				}
				img := make([]byte, len(line))
				if err := f.ShareBlocks(p, lineStart, img); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(img, line) {
					t.Fatal("ShareBlocks did not read the line")
				}
				clear(img)
				if kept := dev.Audit.Check() != nil; kept != tc.concat {
					t.Fatalf("a disk recorded the buffer shared into: %v, want %v", kept, tc.concat)
				}
				got := make([]byte, len(line))
				if err := f.ReadBlocks(p, lineStart, got); err != nil {
					t.Fatal(err)
				}
				if kept := !bytes.Equal(got, line); kept != tc.concat {
					t.Fatalf("the farm kept the buffer shared into: %v, want %v", kept, tc.concat)
				}
			})
		})
	}
}

// lendRead reads [blk, blk+nb) with ReadParts, one part per block, each with
// a Lend slot, and returns each block's bytes and whether it came back as a
// view.
func lendRead(t *testing.T, p *sim.Proc, f *Farm, blk, nb int64) (blocks [][]byte, lent []bool) {
	t.Helper()
	parts := make([]dev.Part, nb)
	views := make([][]byte, nb)
	for i := range parts {
		parts[i] = dev.Part{Blk: blk + int64(i), Buf: bytes.Repeat([]byte{0xEE}, dev.BlockSize), Lend: &views[i]}
	}
	if err := f.ReadParts(p, parts); err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		if v != nil {
			blocks, lent = append(blocks, v), append(lent, true)
		} else {
			blocks, lent = append(blocks, parts[i].Buf), append(lent, false)
		}
	}
	return blocks, lent
}

// TestLendingReadOfAnAdoptedLine (e): a read that asks to borrow every block
// of the adopted line and of the segment before it gets the line's blocks as
// views of the image and the disks' own blocks filled, all as written. With
// a spindle failed, each block the parity farm reconstructs comes back in
// Buf, never as a view.
func TestLendingReadOfAnAdoptedLine(t *testing.T) {
	sim.NewKernel().RunProc(func(p *sim.Proc) {
		f, disks, img, model := adoptedLine(t, p, true)
		for failed := -1; failed < len(disks); failed++ {
			if failed >= 0 {
				f.setFailed(failed, true)
			}
			blocks, lent := lendRead(t, p, f, 0, 2*segLine)
			for i, b := range blocks {
				blk := int64(i)
				disk, _, _ := f.locate(blk)
				inLine := blk >= lineStart
				if !bytes.Equal(b, model[blk*dev.BlockSize:(blk+1)*dev.BlockSize]) {
					t.Fatalf("spindle %d failed: block %d reads wrong", failed, blk)
				}
				if want := inLine && disk != failed; lent[i] != want {
					t.Fatalf("spindle %d failed: block %d (spindle %d) lent %v, want %v", failed, blk, disk, lent[i], want)
				}
				if lent[i] && &b[0] != &img[(blk-lineStart)*dev.BlockSize] {
					t.Fatalf("block %d is lent but not a view of the adopted image", blk)
				}
			}
			if failed >= 0 {
				f.setFailed(failed, false)
			}
		}
	})
}

// TestParityAloneOnItsSpindle: one whole row written on its own, kept (a
// fetched line's lanes) and plain, on the unit-16 four-spindle parity farm.
// Every spindle gets one part, so runOps sends each down as a lone transfer
// where it may: the parity unit, named by its lanes, must still reach a call
// that computes their XOR. A kept row's parity is left pending, so the farm
// holds the three lanes and nothing more. On a fresh farm each time, the
// row's units read disk by disk XOR to zero, and with each spindle failed in
// turn a degraded read returns the image.
func TestParityAloneOnItsSpindle(t *testing.T) {
	const row = 3 * unitBlocks
	const blk = 2 * row // row 2: parity on spindle 2
	img := make([]byte, row*dev.BlockSize)
	for i := range img {
		img[i] = byte(i*13 + i>>12 + 1)
	}
	for _, kept := range []bool{true, false} {
		t.Run(map[bool]string{true: "kept", false: "plain"}[kept], func(t *testing.T) {
			for failed := -1; failed < 4; failed++ {
				sim.NewKernel().RunProc(func(p *sim.Proc) {
					f, disks := newInterleave(p.Kernel(), unitBlocks, true, 4, 1024)
					write := f.WriteBlocks
					if kept {
						write = f.AdoptBlocks
					}
					if err := write(p, blk, bytes.Clone(img)); err != nil {
						t.Fatal(err)
					}
					if failed >= 0 {
						f.setFailed(failed, true)
						got := bytes.Repeat([]byte{0xEE}, len(img))
						if err := f.ReadBlocks(p, blk, got); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, img) {
							t.Fatalf("spindle %d failed: the row reads other than written", failed)
						}
						return
					}
					held := int64(0)
					for _, n := range f.Resident(dev.Resident{}) {
						held += n
					}
					want := int64(4 * unitBlocks * dev.BlockSize) // three lanes and the parity unit
					if kept {
						want = 3 * unitBlocks * dev.BlockSize // the lanes alone: the parity is pending
					}
					if held != want {
						t.Fatalf("the farm holds %d bytes, want %d", held, want)
					}
					xor := make([]byte, unitBlocks*dev.BlockSize)
					unit := make([]byte, len(xor))
					for _, d := range disks {
						if err := d.ReadBlocks(p, 2*unitBlocks, unit); err != nil {
							t.Fatal(err)
						}
						xorInto(xor, unit)
					}
					if !bytes.Equal(xor, make([]byte, len(xor))) {
						t.Fatal("the row's parity unit is not the XOR of its lanes")
					}
				})
			}
		})
	}
}

// TestPartialRowsByReference: partial rows written kept and plain around an
// adopted line, and with a spindle failed, on the unit-16 four-spindle parity
// farm. writeParity's read-back borrows the line's lanes and a kept row whose
// lanes are all immutable leaves its parity pending; every row's units XOR to
// zero until the spindle fails, and the farm reads back what was written,
// degraded after.
func TestPartialRowsByReference(t *testing.T) {
	const unitB = unitBlocks * dev.BlockSize
	sim.NewKernel().RunProc(func(p *sim.Proc) {
		var devs []dev.BlockDev
		var disks []*dev.Disk
		for range 4 {
			d := dev.NewDisk(p.Kernel(), dev.RZ57, 1024, nil)
			devs, disks = append(devs, d), append(disks, d)
		}
		f := must(NewInterleave(unitBlocks, true, devs...))
		model := make([]byte, farmSpan*dev.BlockSize)
		writes := 0
		write := func(kept bool, blk, nb int64) {
			t.Helper()
			writes++
			buf := make([]byte, nb*dev.BlockSize)
			for i := range buf {
				buf[i] = byte(i*29 + int(blk) + writes)
			}
			w := f.WriteBlocks
			if kept {
				w = f.AdoptBlocks
			}
			if err := w(p, blk, buf); err != nil {
				t.Fatal(err)
			}
			copy(model[blk*dev.BlockSize:], buf)
		}
		resident := func() int64 {
			n := int64(0)
			for _, b := range f.Resident(dev.Resident{}) {
				n += b
			}
			return n
		}
		write(true, lineStart, segLine) // the line: rows 5-10, rows 6-9 whole
		// Row 6 is [288,336), all of it in the line: lane 1 written whole
		// and kept, lanes 0 and 2 lent by their disks, so the row's new
		// parity stays pending, as the line left it. The farm then holds
		// nothing more: the new lane in place of the old, and no extent
		// for the parity, which the fresh disk has no spare one for.
		before := resident()
		write(true, 304, unitBlocks)
		if got := resident() - before; got != 0 {
			t.Errorf("a kept row of lent lanes grew the farm by %d bytes, want 0", got)
		}
		write(false, 0, lineStart)
		write(true, 338, 10)        // row 7's lane 0 in part: read back and overlaid
		write(false, 400, 40)       // rows 8 and 9 in part, not kept
		write(true, 230, 120)       // rows 4 and 7 in part, 5 and 6 whole
		write(false, 2*segLine, 20) // row 10 in part, beside the never-written segment 2
		rows := int64(farmSpan/(3*unitBlocks) + 1)
		xor, raw := make([]byte, rows*unitB), make([]byte, rows*unitB)
		for _, d := range disks {
			if err := d.ReadBlocks(p, 0, raw); err != nil {
				t.Fatal(err)
			}
			xorInto(xor, raw)
		}
		if i := slices.IndexFunc(xor, func(b byte) bool { return b != 0 }); i >= 0 {
			t.Errorf("row %d's units do not XOR to zero", int64(i)/unitB)
		}
		f.setFailed(1, true) // row 7's lane 1: the write lives in its parity alone
		write(true, 352, unitBlocks)
		write(false, 300, 30)
		got := make([]byte, len(model))
		if err := f.ReadBlocks(p, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Error("the farm reads other than written")
		}
	})
}
