package stripe

import (
	"crypto/subtle"
	"fmt"
	"slices"

	"repro/internal/dev"
	"repro/internal/sim"
)

// reconstruct serves degraded-mode reads: each missing extent is the XOR
// of the same physical extent on every surviving spindle (the other data
// units plus the row's parity), written into the extent's Buf even where its
// part asked for a view. All survivor reads across all degraded
// extents are issued as one parallel phase, into scratch buffers borrowed
// from the farm's free list until the XOR is done.
func (f *Farm) reconstruct(p *sim.Proc, degraded []extent) error {
	groups := make([][]dev.Part, len(f.devs))
	scratch := make([][][]byte, len(degraded)) // per extent, per survivor
	defer func() {
		for _, sbs := range scratch {
			for _, sb := range sbs {
				f.free.put(sb)
			}
		}
	}()
	for i, e := range degraded {
		for d := range f.devs {
			if d == e.disk {
				continue
			}
			if f.failed[d] {
				return fmt.Errorf("stripe: reconstructing spindle %d with spindle %d also failed: %w",
					e.disk, d, ErrComponentFailed)
			}
			sb := f.free.get(len(e.pt.Buf))
			scratch[i] = append(scratch[i], sb)
			groups[d] = append(groups[d], dev.Part{Blk: e.pt.Blk, Buf: sb})
		}
	}
	errs := make([]error, len(f.devs))
	f.fanOut(p, &f.rebuild, groups, nil, false, errs)
	if err := firstErr(errs); err != nil {
		return err
	}
	for i, e := range degraded {
		if e.pt.Lend != nil {
			*e.pt.Lend = nil // reconstructed bytes, never a view
		}
		copy(e.pt.Buf, scratch[i][0])
		for _, sb := range scratch[i][1:] {
			xorInto(e.pt.Buf, sb)
		}
	}
	return nil
}

// rowPlan is one stripe row of a parity write.
type rowPlan struct {
	row  int64
	full bool  // the write covers every lane
	bad  int64 // lane on a failed spindle, -1 if none
	// lanes are the row's nd lanes as written: the write's slices of buf
	// where it covers a lane whole, the spindle's own immutable bytes where
	// the read-back of a lane it does not touch came back lent (dev.Part's
	// Lend), and bufs[j] elsewhere.
	lanes [][]byte
	// bufs[j], where set, is the farm buffer lane j was read back into and
	// the write's share of it overlaid on.
	bufs   [][]byte
	oldPar []byte // old parity (only when a lane must be reconstructed)
}

// parityWrite is the scratch of one writeParity call: its row plans, their
// lane lists and farm buffers, and the component requests of a phase. A farm
// keeps the idle ones (Farm.parityWrites), so a call allocates nothing but
// the lane lists a disk may keep.
type parityWrite struct {
	plans       []rowPlan
	lanes, bufs [][]byte // every plan's lanes and bufs, nd a row
	exts        []extent
}

// parityWrite takes an idle parityWrite, or makes one, ready for rows rows of
// nd lanes each.
func (f *Farm) parityWrite(rows, nd int) *parityWrite {
	var w *parityWrite
	if n := len(f.parityWrites); n > 0 {
		w, f.parityWrites = f.parityWrites[n-1], f.parityWrites[:n-1]
	} else {
		w = new(parityWrite)
	}
	// putParityWrite left every element zero, up to the capacity.
	w.plans = slices.Grow(w.plans[:0], rows)[:rows]
	w.lanes = slices.Grow(w.lanes[:0], rows*nd)[:rows*nd]
	w.bufs = slices.Grow(w.bufs[:0], rows*nd)[:rows*nd]
	for i := range w.plans {
		w.plans[i] = rowPlan{lanes: w.lanes[i*nd : (i+1)*nd : (i+1)*nd], bufs: w.bufs[i*nd : (i+1)*nd : (i+1)*nd]}
	}
	return w
}

// putParityWrite takes w back once its call is over, with every farm buffer
// its plans hold, dropping what it pointed at.
func (f *Farm) putParityWrite(w *parityWrite) {
	for i := range w.plans {
		for _, b := range w.plans[i].bufs {
			if b != nil {
				f.free.put(b)
			}
		}
		if b := w.plans[i].oldPar; b != nil {
			f.free.put(b)
		}
	}
	clear(w.plans)
	clear(w.lanes)
	clear(w.bufs)
	clear(w.exts)
	w.exts = w.exts[:0]
	f.parityWrites = append(f.parityWrites, w)
}

// writeParity maintains rotating parity row by row. A fully covered row is
// the cheap case — parity is the XOR of the new data, no reads ("full
// stripe write"). A partially covered row pays the classic small-write
// penalty: the old row is read back, every healthy lane of it, and the
// parity unit rewritten whole. Reads for every partial row form one parallel
// phase; all data and parity writes form a second. Every data write slices
// buf, kept when keep is set.
//
// The read-back borrows what it can. A lane the write covers whole is read
// into the farm's sink, for its timing alone, and the row takes the write's
// slice in its place; a lane it does not touch asks to be lent (dev.Part's
// Lend) and is used in place when it is; only a lane it covers in part, or
// any lane of a row with a failed spindle (rebuilt from the old parity), is
// read into a farm buffer and overlaid.
//
// Each parity write names the row's lanes (dev.Part.XorOf) and its disk
// computes their XOR. In a kept write, a row whose lanes are all immutable —
// buf's slices, lent lanes — hands them over kept with a list of their own,
// and the disk may leave the XOR pending until something reads it; every
// other row's list and farm buffers are the call's scratch, borrowed from the
// farm until the write phase has joined, and never kept.
func (f *Farm) writeParity(p *sim.Proc, blk, nb int64, buf []byte, keep bool) error {
	const bs = dev.BlockSize
	nd := f.dataDisks()
	unitB := int(f.unit) * bs
	rowBlocks := nd * f.unit
	firstRow, lastRow := blk/rowBlocks, (blk+nb-1)/rowBlocks
	w := f.parityWrite(int(lastRow-firstRow+1), int(nd))
	defer f.putParityWrite(w)
	if len(f.sink) < unitB {
		f.sink = make([]byte, unitB)
	}
	for i := range w.plans {
		rp := &w.plans[i]
		r := firstRow + int64(i)
		pd, bad := f.parityDisk(r), int64(-1)
		for j := int64(0); j < nd; j++ {
			if f.failed[f.lane(r, j)] {
				bad = j
			}
		}
		if f.failed[pd] && bad >= 0 {
			return fmt.Errorf("stripe: write to row %d with two failed spindles: %w", r, ErrComponentFailed)
		}
		rp.row, rp.bad = r, bad
		rp.full = blk <= r*rowBlocks && blk+nb >= (r+1)*rowBlocks
		if rp.full {
			continue
		}
		// Read back every healthy lane, plus the old parity when a failed
		// lane must be reconstructed from it.
		phys := r * f.unit
		for j := int64(0); j < nd; j++ {
			d := f.lane(r, j)
			laneStart := r*rowBlocks + j*f.unit
			s, e := max(blk, laneStart), min(blk+nb, laneStart+f.unit)
			pt := dev.Part{Blk: phys}
			switch {
			case bad < 0 && s == laneStart && e == laneStart+f.unit: // replaced whole
				pt.Buf, pt.Lend = f.sink[:unitB], &rp.lanes[j]
			case bad < 0 && s >= e: // untouched: lent, or read into a buffer
				rp.bufs[j] = f.free.get(unitB)
				rp.lanes[j] = rp.bufs[j]
				pt.Buf, pt.Lend = rp.bufs[j], &rp.lanes[j]
			default:
				rp.bufs[j] = f.free.get(unitB)
				rp.lanes[j] = rp.bufs[j]
				pt.Buf = rp.bufs[j]
				if f.failed[d] {
					clear(pt.Buf) // nothing is read into a failed lane
					continue
				}
			}
			w.exts = append(w.exts, extent{disk: d, pt: pt})
		}
		if bad >= 0 {
			rp.oldPar = f.free.get(unitB)
			w.exts = append(w.exts, extent{disk: pd, pt: dev.Part{Blk: phys, Buf: rp.oldPar}})
		}
	}
	if err := f.dispatch(p, &f.names.read, w.exts, false); err != nil {
		return err
	}
	w.exts = w.exts[:0]

	for i := range w.plans {
		rp := &w.plans[i]
		for j, b := range rp.bufs {
			if b != nil && &rp.lanes[j][0] != &b[0] { // lent: the buffer was not needed
				dev.Audit.Record("stripe: lent lane", rp.lanes[j])
				f.free.put(b)
				rp.bufs[j] = nil
			}
		}
		if rp.bad >= 0 {
			// Rebuild the failed lane's old contents: XOR of the old
			// parity and every surviving lane.
			bad := rp.lanes[rp.bad]
			copy(bad, rp.oldPar)
			for j := int64(0); j < nd; j++ {
				if j != rp.bad {
					xorInto(bad, rp.lanes[j])
				}
			}
		}
		// Overlay the new data onto the row and collect data writes.
		kept := keep
		for j := int64(0); j < nd; j++ {
			laneStart := rp.row*rowBlocks + j*f.unit
			if s, e := max(blk, laneStart), min(blk+nb, laneStart+f.unit); s < e {
				data := buf[(s-blk)*bs : (e-blk)*bs]
				if rp.bufs[j] != nil {
					copy(rp.bufs[j][(s-laneStart)*bs:], data)
				} else {
					rp.lanes[j] = data
				}
				if d := f.lane(rp.row, j); !f.failed[d] { // else the write survives in parity alone
					w.exts = append(w.exts, extent{disk: d, pt: dev.Part{Blk: rp.row*f.unit + s - laneStart, Buf: data, Keep: keep}})
				}
			}
			kept = kept && rp.bufs[j] == nil
		}
		if pd := f.parityDisk(rp.row); !f.failed[pd] {
			if kept { // the disk may keep the list: it gets one of its own
				rp.lanes = append([][]byte(nil), rp.lanes...)
			}
			// Buf gives the unit's length only (dev.Part.XorOf).
			w.exts = append(w.exts, extent{disk: pd, pt: dev.Part{Blk: rp.row * f.unit, Buf: rp.lanes[0], Keep: kept, XorOf: &rp.lanes}})
		}
	}
	return f.dispatch(p, &f.names.write, w.exts, true)
}

// xorInto sets dst ^= src, a machine word (or a vector) at a time. The two
// are parity units or lanes of equal length.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
