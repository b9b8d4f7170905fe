package stripe

import (
	"bytes"
	"testing"

	"repro/internal/dev"
	"repro/internal/sim"
)

// filled writes a distinct pattern over the whole farm and returns it.
func filled(t *testing.T, p *sim.Proc, f *Farm) []byte {
	t.Helper()
	w := make([]byte, f.NumBlocks()*dev.BlockSize)
	for i := range w {
		w[i] = byte(i*7 + i/dev.BlockSize)
	}
	if err := f.WriteBlocks(p, 0, w); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParityDiscardKeepsPartialRows uses the parity farm of the serve
// workload (4 spindles, stripe unit 16): a discard that starts and ends
// mid-row forgets the rows wholly inside it, lanes and parity on every
// spindle, and keeps the two rows it cuts. Every row's units still XOR to
// zero, and with any one spindle failed a degraded read of the partial rows
// returns the bytes written.
func TestParityDiscardKeepsPartialRows(t *testing.T) {
	const unit, n, rows = 16, 4, 8
	k := sim.NewKernel()
	f, disks := newInterleave(k, unit, true, n, rows*unit)
	row := f.dataDisks() * unit
	lo, hi := row+5, 5*row+7 // mid-row 1 to mid-row 5: rows 2-4 lie wholly inside
	k.RunProc(func(p *sim.Proc) {
		w := filled(t, p, f)
		f.Discard(lo, hi-lo)
		for r := int64(0); r < rows; r++ {
			xor := make([]byte, unit*dev.BlockSize)
			u := make([]byte, len(xor))
			for _, d := range disks {
				if err := d.ReadBlocks(p, r*unit, u); err != nil {
					t.Fatal(err)
				}
				xorInto(xor, u)
			}
			if !bytes.Equal(xor, make([]byte, len(xor))) {
				t.Errorf("row %d: parity is not the XOR of its lanes after the discard", r)
			}
		}
		got := make([]byte, len(w))
		if err := f.ReadBlocks(p, 0, got); err != nil {
			t.Fatal(err)
		}
		for blk := int64(0); blk < f.NumBlocks(); blk++ {
			b := got[blk*dev.BlockSize : (blk+1)*dev.BlockSize]
			gone := blk >= 2*row && blk < 5*row
			if want := w[blk*dev.BlockSize : (blk+1)*dev.BlockSize]; gone && !bytes.Equal(b, make([]byte, dev.BlockSize)) || !gone && !bytes.Equal(b, want) {
				t.Fatalf("block %d (whole row discarded: %v) reads other than it should", blk, gone)
			}
		}
		for fail := range disks {
			f.setFailed(fail, true)
			for _, r := range []int64{1, 5} {
				rb := make([]byte, row*dev.BlockSize)
				if err := f.ReadBlocks(p, r*row, rb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rb, w[r*row*dev.BlockSize:(r+1)*row*dev.BlockSize]) {
					t.Errorf("spindle %d failed: degraded read of partial row %d differs from what was written", fail, r)
				}
			}
			f.setFailed(fail, false)
		}
	})
}

// TestDiscardWithoutParityForgetsTheRange: a concatenated farm (the range
// crossing from one component into the next) and a striped one forget every
// block of the range and nothing else.
func TestDiscardWithoutParityForgetsTheRange(t *testing.T) {
	k := sim.NewKernel()
	concat, _ := newConcat(k, 40, 24, 50)
	striped, _ := newInterleave(k, 16, false, 4, 64)
	for name, f := range map[string]*Farm{"concatenated": concat, "striped": striped} {
		lo, hi := int64(21), int64(77)
		k.RunProc(func(p *sim.Proc) {
			w := filled(t, p, f)
			f.Discard(lo, hi-lo)
			got := make([]byte, len(w))
			if err := f.ReadBlocks(p, 0, got); err != nil {
				t.Fatal(err)
			}
			for blk := int64(0); blk < f.NumBlocks(); blk++ {
				b := got[blk*dev.BlockSize : (blk+1)*dev.BlockSize]
				gone := blk >= lo && blk < hi
				if want := w[blk*dev.BlockSize : (blk+1)*dev.BlockSize]; gone && !bytes.Equal(b, make([]byte, dev.BlockSize)) || !gone && !bytes.Equal(b, want) {
					t.Fatalf("%s: block %d (in the range: %v) reads other than it should", name, blk, gone)
				}
			}
		})
	}
}
