package stripe

import (
	"crypto/subtle"
	"errors"
	"fmt"

	"repro/internal/dev"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// Interleave is a striped disk farm: the logical block space is cut into
// stripe units of unit blocks and dealt round-robin over N spindles, so a
// request spanning several units is served by several independent disk
// arms at once. With parity enabled the farm keeps one rotating
// RAID-5-style parity unit per stripe row (giving up one spindle's worth
// of capacity) and survives a single failed component: reads reconstruct
// the missing unit by XOR of the survivors, writes maintain parity with
// read-modify cycles.
//
// Geometry without parity: data stripe unit su lives on disk su % N at
// physical unit su / N. With parity, row r = su/(N-1) holds data units on
// the N-1 disks other than the parity disk r % N, in disk-index order.
type Interleave struct {
	devs   []dev.BlockDev
	unit   int64 // stripe unit in blocks
	parity bool
	failed []bool
	rows   int64 // complete stripe rows
	total  int64 // logical data blocks presented
	free   freeList
	names  farmNames
	// rebuild names the survivor reads of a degraded-mode reconstruction.
	rebuild fanNames
}

var _ Farm = (*Interleave)(nil)

// ErrComponentFailed is returned when a request needs a component marked
// failed and no parity is available to reconstruct around it.
var ErrComponentFailed = errors.New("stripe: component failed")

// NewInterleave stripes devs with the given stripe unit (in 4 KB blocks).
// With parity set, one unit per row is rotating parity; at least three
// spindles are required then (two without). Capacity is the largest whole
// number of stripe rows that fits the smallest component.
func NewInterleave(unitBlocks int, parity bool, devs ...dev.BlockDev) (*Interleave, error) {
	if len(devs) == 0 {
		return nil, ErrNoDevices
	}
	if unitBlocks <= 0 {
		return nil, fmt.Errorf("stripe: stripe unit must be positive, got %d", unitBlocks)
	}
	if len(devs) < 2 {
		return nil, fmt.Errorf("stripe: interleaving needs at least 2 spindles, got %d", len(devs))
	}
	if parity && len(devs) < 3 {
		return nil, fmt.Errorf("stripe: rotating parity needs at least 3 spindles, got %d", len(devs))
	}
	min := devs[0].NumBlocks()
	for _, d := range devs[1:] {
		if d.NumBlocks() < min {
			min = d.NumBlocks()
		}
	}
	rows := min / int64(unitBlocks)
	if rows == 0 {
		return nil, fmt.Errorf("stripe: components hold %d blocks, smaller than one %d-block stripe unit", min, unitBlocks)
	}
	dataDisks := int64(len(devs))
	if parity {
		dataDisks--
	}
	return &Interleave{
		devs:    devs,
		unit:    int64(unitBlocks),
		parity:  parity,
		failed:  make([]bool, len(devs)),
		rows:    rows,
		total:   rows * dataDisks * int64(unitBlocks),
		names:   newFarmNames("stripe.ileave", len(devs)),
		rebuild: newFanNames("stripe.rebuild.read", len(devs)),
	}, nil
}

// MustNewInterleave is NewInterleave panicking on error, for tests and
// static configurations.
func MustNewInterleave(unitBlocks int, parity bool, devs ...dev.BlockDev) *Interleave {
	il, err := NewInterleave(unitBlocks, parity, devs...)
	if err != nil {
		panic(err)
	}
	return il
}

// NumBlocks implements dev.BlockDev (data capacity; parity is not
// addressable).
func (il *Interleave) NumBlocks() int64 { return il.total }

// Components reports the number of spindles.
func (il *Interleave) Components() int { return len(il.devs) }

// Component returns spindle i.
func (il *Interleave) Component(i int) dev.BlockDev { return il.devs[i] }

// StripeUnit reports the stripe unit in blocks.
func (il *Interleave) StripeUnit() int { return int(il.unit) }

// Parity reports whether the farm keeps rotating parity.
func (il *Interleave) Parity() bool { return il.parity }

// SetFailed marks component i failed (or repaired). With parity the farm
// keeps serving reads in degraded mode; without parity requests touching
// the component return ErrComponentFailed.
func (il *Interleave) SetFailed(i int, down bool) { il.failed[i] = down }

// dataDisks is the number of data units per stripe row.
func (il *Interleave) dataDisks() int64 {
	if il.parity {
		return int64(len(il.devs) - 1)
	}
	return int64(len(il.devs))
}

// parityDisk returns row r's parity spindle (-1 without parity).
func (il *Interleave) parityDisk(row int64) int {
	if !il.parity {
		return -1
	}
	return int(row % int64(len(il.devs)))
}

// lane maps data-unit index j of a row to its spindle: the j-th disk
// skipping the row's parity disk.
func (il *Interleave) lane(row int64, j int64) int {
	if !il.parity {
		return int(j)
	}
	pd := int64(il.parityDisk(row))
	if j >= pd {
		return int(j + 1)
	}
	return int(j)
}

// extent is a unit-bounded slice of a request: logical blocks
// [blk, blk+n) fall entirely inside data unit j of row row, at physical
// block phys of spindle disk.
type extent struct {
	row  int64
	j    int64 // data-unit index within the row
	disk int
	phys int64 // physical start block on the spindle
	buf  []byte
}

// split cuts a validated request into unit-bounded extents.
func (il *Interleave) split(blk int64, buf []byte) []extent {
	nd := il.dataDisks()
	last := blk + int64(len(buf)/dev.BlockSize) - 1
	out := make([]extent, 0, last/il.unit-blk/il.unit+1)
	for len(buf) > 0 {
		su := blk / il.unit
		off := blk % il.unit
		row := su / nd
		j := su % nd
		n := il.unit - off
		if avail := int64(len(buf) / dev.BlockSize); n > avail {
			n = avail
		}
		out = append(out, extent{
			row:  row,
			j:    j,
			disk: il.lane(row, j),
			phys: row*il.unit + off,
			buf:  buf[:n*dev.BlockSize],
		})
		buf = buf[n*dev.BlockSize:]
		blk += n
	}
	return out
}

func (il *Interleave) validate(blk int64, buf []byte) (int64, error) {
	if len(buf)%dev.BlockSize != 0 {
		return 0, fmt.Errorf("stripe: buffer %d bytes not block-aligned", len(buf))
	}
	nb := int64(len(buf) / dev.BlockSize)
	if blk < 0 || blk+nb > il.total {
		return 0, fmt.Errorf("stripe: blocks [%d,%d) out of range [0,%d)", blk, blk+nb, il.total)
	}
	return nb, nil
}

// ReadBlocks implements dev.BlockDev.
func (il *Interleave) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	if _, err := il.validate(blk, buf); err != nil {
		return err
	}
	tr := reqtrace.From(p)
	var note string
	if tr != nil {
		note = ioNote(false, buf)
	}
	st := tr.StageStart(reqtrace.KindStripeIO, p.Now(), note)
	err := il.readBlocks(p, blk, buf)
	tr.StageEnd(st, p.Now())
	return err
}

func (il *Interleave) readBlocks(p *sim.Proc, blk int64, buf []byte) error {
	exts := il.split(blk, buf)
	groups := make([][]op, len(il.devs))
	var degraded []extent
	for _, e := range exts {
		if il.failed[e.disk] {
			if !il.parity {
				return fmt.Errorf("stripe: read of blocks on spindle %d: %w", e.disk, ErrComponentFailed)
			}
			degraded = append(degraded, e)
			continue
		}
		groups[e.disk] = append(groups[e.disk], op{d: il.devs[e.disk], blk: e.phys, buf: e.buf})
	}
	errs := dispatchAll(p, &il.names.read, &il.free, groups, false)
	for d, err := range errs {
		if err == nil {
			continue
		}
		// A spindle refused the read (injected media fault, dying arm)
		// without being marked failed. With parity, serve its extents in
		// degraded mode — reconstruct from the survivors — instead of
		// failing the request; without parity the error stands.
		if !il.parity {
			return err
		}
		for _, e := range exts {
			if e.disk == d {
				degraded = append(degraded, e)
			}
		}
	}
	if len(degraded) == 0 {
		return nil
	}
	return il.reconstruct(p, degraded)
}

// reconstruct serves degraded-mode reads: each missing extent is the XOR
// of the same physical extent on every surviving spindle (the other data
// units plus the row's parity). All survivor reads across all degraded
// extents are issued as one parallel phase, into scratch buffers borrowed
// from the farm's free list until the XOR is done.
func (il *Interleave) reconstruct(p *sim.Proc, degraded []extent) error {
	groups := make([][]op, len(il.devs))
	scratch := make([][][]byte, len(degraded)) // per extent, per survivor
	defer func() {
		for _, sbs := range scratch {
			for _, sb := range sbs {
				il.free.put(sb)
			}
		}
	}()
	for i, e := range degraded {
		for d := range il.devs {
			if d == e.disk {
				continue
			}
			if il.failed[d] {
				return fmt.Errorf("stripe: reconstructing spindle %d with spindle %d also failed: %w",
					e.disk, d, ErrComponentFailed)
			}
			sb := il.free.get(len(e.buf))
			scratch[i] = append(scratch[i], sb)
			groups[d] = append(groups[d], op{d: il.devs[d], blk: e.phys, buf: sb})
		}
	}
	if err := dispatch(p, &il.rebuild, &il.free, groups, false); err != nil {
		return err
	}
	for i, e := range degraded {
		copy(e.buf, scratch[i][0])
		for _, sb := range scratch[i][1:] {
			xorInto(e.buf, sb)
		}
	}
	return nil
}

// WriteBlocks implements dev.BlockDev.
func (il *Interleave) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	nb, err := il.validate(blk, buf)
	if err != nil {
		return err
	}
	tr := reqtrace.From(p)
	var note string
	if tr != nil {
		note = ioNote(true, buf)
	}
	st := tr.StageStart(reqtrace.KindStripeIO, p.Now(), note)
	err = il.writeBlocks(p, blk, nb, buf)
	tr.StageEnd(st, p.Now())
	return err
}

func (il *Interleave) writeBlocks(p *sim.Proc, blk, nb int64, buf []byte) error {
	if !il.parity {
		groups := make([][]op, len(il.devs))
		for _, e := range il.split(blk, buf) {
			if il.failed[e.disk] {
				return fmt.Errorf("stripe: write to blocks on spindle %d: %w", e.disk, ErrComponentFailed)
			}
			groups[e.disk] = append(groups[e.disk], op{d: il.devs[e.disk], blk: e.phys, buf: e.buf})
		}
		return dispatch(p, &il.names.write, &il.free, groups, true)
	}
	return il.writeParity(p, blk, nb, buf)
}

// writeParity maintains rotating parity row by row. A fully covered row is
// the cheap case — parity is the XOR of the new data, no reads ("full
// stripe write"). A partially covered row pays the classic small-write
// penalty: the old row is read back (reconstructing a failed lane from
// parity if needed), overlaid with the new data, and the parity unit
// rewritten whole. Reads for every partial row form one parallel phase;
// all data and parity writes form a second. Row images and parity units
// are borrowed from the farm's free list until the write phase has joined.
func (il *Interleave) writeParity(p *sim.Proc, blk, nb int64, buf []byte) error {
	nd := il.dataDisks()
	unitB := il.unit * int64(dev.BlockSize)
	rowBlocks := nd * il.unit
	firstRow := blk / rowBlocks
	lastRow := (blk + nb - 1) / rowBlocks

	type rowPlan struct {
		row     int64
		full    bool
		old     [][]byte // nd lane buffers (partial rows only)
		oldPar  []byte   // old parity (only when a lane must be reconstructed)
		badLane int64    // lane on a failed spindle, -1 if none
		parity  []byte
	}
	plans := make([]rowPlan, 0, lastRow-firstRow+1)
	defer func() {
		for i := range plans {
			rp := &plans[i]
			for _, b := range rp.old {
				il.free.put(b)
			}
			if rp.oldPar != nil {
				il.free.put(rp.oldPar)
			}
			if rp.parity != nil {
				il.free.put(rp.parity)
			}
		}
	}()
	readGroups := make([][]op, len(il.devs))
	for r := firstRow; r <= lastRow; r++ {
		pd := il.parityDisk(r)
		plans = append(plans, rowPlan{row: r, badLane: -1})
		rp := &plans[len(plans)-1]
		covStart := r * rowBlocks // logical row bounds
		covEnd := covStart + rowBlocks
		rp.full = blk <= covStart && blk+nb >= covEnd
		for j := int64(0); j < nd; j++ {
			if il.failed[il.lane(r, j)] {
				rp.badLane = j
			}
		}
		if il.failed[pd] && rp.badLane >= 0 {
			return fmt.Errorf("stripe: write to row %d with two failed spindles: %w", r, ErrComponentFailed)
		}
		if !rp.full {
			// Read back the whole old row (healthy lanes), plus the old
			// parity when a failed lane must be reconstructed from it.
			rp.old = make([][]byte, nd)
			phys := r * il.unit
			for j := int64(0); j < nd; j++ {
				rp.old[j] = il.free.get(int(unitB))
				d := il.lane(r, j)
				if il.failed[d] {
					clear(rp.old[j]) // nothing is read into a failed lane
					continue
				}
				readGroups[d] = append(readGroups[d], op{d: il.devs[d], blk: phys, buf: rp.old[j]})
			}
			if rp.badLane >= 0 {
				rp.oldPar = il.free.get(int(unitB))
				readGroups[pd] = append(readGroups[pd], op{d: il.devs[pd], blk: phys, buf: rp.oldPar})
			}
		}
	}
	if err := dispatch(p, &il.names.read, &il.free, readGroups, false); err != nil {
		return err
	}

	writeGroups := make([][]op, len(il.devs))
	for i := range plans {
		rp := &plans[i]
		pd := il.parityDisk(rp.row)
		rp.parity = il.free.get(int(unitB))
		if !rp.full && rp.badLane >= 0 {
			// Rebuild the failed lane's old contents: XOR of the old
			// parity and every surviving lane.
			bad := rp.old[rp.badLane]
			copy(bad, rp.oldPar)
			for j := int64(0); j < nd; j++ {
				if j != rp.badLane {
					xorInto(bad, rp.old[j])
				}
			}
		}
		// Overlay the new data onto the row image and collect data writes.
		rowStart := rp.row * rowBlocks
		var prev []byte
		for j := int64(0); j < nd; j++ {
			laneStart := rowStart + j*il.unit
			laneEnd := laneStart + il.unit
			s, e := blk, blk+nb
			if s < laneStart {
				s = laneStart
			}
			if e > laneEnd {
				e = laneEnd
			}
			var lane []byte // the lane's complete new contents
			if rp.full {
				lane = buf[(laneStart-blk)*int64(dev.BlockSize) : (laneEnd-blk)*int64(dev.BlockSize)]
			} else {
				lane = rp.old[j]
				if s < e {
					copy(lane[(s-laneStart)*int64(dev.BlockSize):], buf[(s-blk)*int64(dev.BlockSize):(e-blk)*int64(dev.BlockSize)])
				}
			}
			if j == 1 {
				// Lanes 0 and 1 seed the recycled unit in one pass: no clearing, no copy.
				subtle.XORBytes(rp.parity, prev, lane)
			} else if j > 1 {
				xorInto(rp.parity, lane)
			}
			prev = lane
			if s < e {
				d := il.lane(rp.row, j)
				if il.failed[d] {
					continue // the write survives in parity alone
				}
				writeGroups[d] = append(writeGroups[d], op{
					d:   il.devs[d],
					blk: rp.row*il.unit + (s - laneStart),
					buf: lane[(s-laneStart)*int64(dev.BlockSize) : (e-laneStart)*int64(dev.BlockSize)],
				})
			}
		}
		if !il.failed[pd] {
			writeGroups[pd] = append(writeGroups[pd], op{d: il.devs[pd], blk: rp.row * il.unit, buf: rp.parity})
		}
	}
	return dispatch(p, &il.names.write, &il.free, writeGroups, true)
}

// Flush implements dev.Flusher across all spindles in parallel.
func (il *Interleave) Flush(p *sim.Proc) error {
	return flushAll(p, &il.names.flush, il.devs)
}

// xorInto sets dst ^= src, a machine word (or a vector) at a time. The two
// are parity units or lanes of equal length.
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
