package stripe

import (
	"crypto/subtle"
	"fmt"

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
	if err := f.dispatch(p, &f.rebuild, groups, false); err != nil {
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

// writeParity maintains rotating parity row by row. A fully covered row is
// the cheap case — parity is the XOR of the new data, no reads ("full
// stripe write"). A partially covered row pays the classic small-write
// penalty: the old row is read back (reconstructing a failed lane from
// parity if needed), overlaid with the new data, and the parity unit
// rewritten whole. Reads for every partial row form one parallel phase;
// all data and parity writes form a second. Every data write slices buf,
// kept when keep is set. Each parity write names the row's lanes
// (dev.Part.XorOf) and its disk computes their XOR; a full row's lanes are
// buf's, so a kept full row hands them over kept and the disk may leave the
// XOR pending until something reads it. Row images and parity scratch are
// borrowed from the farm's free list until the write phase has joined, and
// never kept.
func (f *Farm) writeParity(p *sim.Proc, blk, nb int64, buf []byte, keep bool) error {
	nd := f.dataDisks()
	unitB := f.unit * int64(dev.BlockSize)
	rowBlocks := nd * f.unit
	firstRow := blk / rowBlocks
	lastRow := (blk + nb - 1) / rowBlocks

	type rowPlan struct {
		row     int64
		full    bool
		lanes   [][]byte // the nd lanes as written: buf's slices (full rows), the old row overlaid (partial rows)
		oldPar  []byte   // old parity (only when a lane must be reconstructed)
		badLane int64    // lane on a failed spindle, -1 if none
		parity  []byte   // scratch the parity disk may compute the XOR into
	}
	plans := make([]rowPlan, 0, lastRow-firstRow+1)
	// One array of lane lists for every row: a disk that keeps a row's parity
	// pending keeps its list.
	lanes := make([][]byte, (lastRow-firstRow+1)*nd)
	defer func() {
		for i := range plans {
			rp := &plans[i]
			if !rp.full {
				for _, b := range rp.lanes {
					f.free.put(b)
				}
			}
			if rp.oldPar != nil {
				f.free.put(rp.oldPar)
			}
			if rp.parity != nil {
				f.free.put(rp.parity)
			}
		}
	}()
	readGroups := make([][]dev.Part, len(f.devs))
	for r := firstRow; r <= lastRow; r++ {
		pd, bad := f.parityDisk(r), int64(-1)
		for j := int64(0); j < nd; j++ {
			if f.failed[f.lane(r, j)] {
				bad = j
			}
		}
		if f.failed[pd] && bad >= 0 {
			return fmt.Errorf("stripe: write to row %d with two failed spindles: %w", r, ErrComponentFailed)
		}
		covStart := r * rowBlocks // logical row bounds
		covEnd := covStart + rowBlocks
		i := (r - firstRow) * nd
		plans = append(plans, rowPlan{row: r, full: blk <= covStart && blk+nb >= covEnd, lanes: lanes[i : i+nd : i+nd], badLane: bad})
		rp := &plans[len(plans)-1]
		if !rp.full {
			// Read back the whole old row (healthy lanes), plus the old
			// parity when a failed lane must be reconstructed from it.
			phys := r * f.unit
			for j := int64(0); j < nd; j++ {
				rp.lanes[j] = f.free.get(int(unitB))
				d := f.lane(r, j)
				if f.failed[d] {
					clear(rp.lanes[j]) // nothing is read into a failed lane
					continue
				}
				readGroups[d] = append(readGroups[d], dev.Part{Blk: phys, Buf: rp.lanes[j]})
			}
			if rp.badLane >= 0 {
				rp.oldPar = f.free.get(int(unitB))
				readGroups[pd] = append(readGroups[pd], dev.Part{Blk: phys, Buf: rp.oldPar})
			}
		}
	}
	if err := f.dispatch(p, &f.names.read, readGroups, false); err != nil {
		return err
	}

	const bs = dev.BlockSize
	writeGroups := make([][]dev.Part, len(f.devs))
	for i := range plans {
		rp := &plans[i]
		pd := f.parityDisk(rp.row)
		if !rp.full && rp.badLane >= 0 {
			// Rebuild the failed lane's old contents: XOR of the old
			// parity and every surviving lane.
			bad := rp.lanes[rp.badLane]
			copy(bad, rp.oldPar)
			for j := int64(0); j < nd; j++ {
				if j != rp.badLane {
					xorInto(bad, rp.lanes[j])
				}
			}
		}
		// Overlay the new data onto the row image and collect data writes.
		rowStart := rp.row * rowBlocks
		for j := int64(0); j < nd; j++ {
			laneStart := rowStart + j*f.unit
			// [s, e) is the lane's share of the request. Its data write
			// slices buf, in a full row and a partial one alike.
			if s, e := max(blk, laneStart), min(blk+nb, laneStart+f.unit); s < e {
				data := buf[(s-blk)*bs : (e-blk)*bs]
				if rp.full {
					rp.lanes[j] = data
				} else {
					copy(rp.lanes[j][(s-laneStart)*bs:], data)
				}
				if d := f.lane(rp.row, j); !f.failed[d] { // else the write survives in parity alone
					writeGroups[d] = append(writeGroups[d], dev.Part{Blk: rp.row*f.unit + s - laneStart, Buf: data, Keep: keep})
				}
			}
		}
		if !f.failed[pd] {
			rp.parity = f.free.get(int(unitB))
			writeGroups[pd] = append(writeGroups[pd], dev.Part{Blk: rp.row * f.unit, Buf: rp.parity, Keep: keep && rp.full, XorOf: &rp.lanes})
		}
	}
	return f.dispatch(p, &f.names.write, writeGroups, true)
}

// xorInto sets dst ^= src, a machine word (or a vector) at a time. The two
// are parity units or lanes of equal length.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
