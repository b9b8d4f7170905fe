// Package stripe implements the disk-farm pseudo-device driver of §6.6:
// several independent disks presented as a single logical block address
// space. One driver serves two address maps: New reproduces the paper's
// simple concatenation, NewInterleave adds true striping with an optional
// rotating parity (parity.go). Either way a spanning request is split into
// per-component sub-requests issued on their own simulated processes, so
// independent disk arms overlap in virtual time.
package stripe

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/dev"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Farm is a disk farm: block I/O over its components, a whole-farm
// write-cache flush, and component introspection.
//
// Concatenated (unit == 0): component 0 owns blocks [0, n0), component 1
// owns [n0, n0+n1), and so on.
//
// Striped (unit > 0): the logical block space is cut into stripe units of
// unit blocks and dealt round-robin over N spindles, so a request spanning
// several units is served by several independent disk arms at once. Data
// stripe unit su lives on disk su % N at physical unit su / N. With parity
// the farm keeps one rotating RAID-5-style parity unit per stripe row
// (giving up one spindle's worth of capacity) and survives a single failed
// component: reads reconstruct the missing unit by XOR of the survivors,
// writes maintain parity with read-modify cycles. Row r = su/(N-1) then
// holds data units on the N-1 disks other than the parity disk r % N, in
// disk-index order.
type Farm struct {
	devs   []dev.Vectored
	starts []int64 // concatenated: starts[i] = first block of component i
	unit   int64   // stripe unit in blocks; 0 when concatenated
	parity bool
	failed []bool
	total  int64 // logical data blocks presented
	free   freeList
	// partLists are byDisk's lists of component parts, and parityWrites
	// writeParity's scratch, reused as free's buffers are (fields, not
	// sync.Pools, for the same reasons).
	partLists    [][]dev.Part
	parityWrites []*parityWrite
	// sink is what a read fills that nobody reads (writeParity's read-back
	// of a lane it overwrites whole, kept for the timing alone): one buffer
	// for every request, since its bytes never matter.
	sink  []byte
	names farmNames
	// rebuild names the survivor reads of a degraded-mode reconstruction.
	rebuild fanNames
}

var (
	// ErrNoDevices is returned by New and NewInterleave for an empty
	// component list.
	ErrNoDevices = errors.New("stripe: no component devices")
	// ErrComponentFailed is returned when a request needs a component marked
	// failed and no parity is available to reconstruct around it.
	ErrComponentFailed = errors.New("stripe: component failed")
	// ErrStriped is returned by Append on a striped farm: every stripe row
	// spreads over all spindles, so one more cannot extend the address space
	// in place.
	ErrStriped = errors.New("stripe: cannot append to a striped farm")
)

// New returns the concatenation of devs, or ErrNoDevices if devs is empty.
func New(devs ...dev.BlockDev) (*Farm, error) {
	vs, err := vectored(devs)
	if err != nil {
		return nil, err
	}
	f := &Farm{devs: vs, failed: make([]bool, len(devs)), names: newFarmNames("stripe.concat", len(devs))}
	for _, d := range vs {
		f.starts = append(f.starts, f.total)
		f.total += d.NumBlocks()
	}
	return f, nil
}

// NewInterleave stripes devs with the given stripe unit (in 4 KB blocks).
// With parity set, one unit per row is rotating parity; at least three
// spindles are required then (two without). Capacity is the largest whole
// number of stripe rows that fits the smallest component.
func NewInterleave(unitBlocks int, parity bool, devs ...dev.BlockDev) (*Farm, error) {
	vs, err := vectored(devs)
	if err != nil {
		return nil, err
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
	f := &Farm{
		devs:    vs,
		unit:    int64(unitBlocks),
		parity:  parity,
		failed:  make([]bool, len(devs)),
		names:   newFarmNames("stripe.ileave", len(devs)),
		rebuild: newFanNames("stripe.rebuild.read", len(devs)),
	}
	f.total = rows * f.dataDisks() * f.unit
	return f, nil
}

// vectored returns devs as the components a farm drives: every one must take
// a coalesced transfer as a list of the caller's slices (dev.Vectored).
func vectored(devs []dev.BlockDev) ([]dev.Vectored, error) {
	if len(devs) == 0 {
		return nil, ErrNoDevices
	}
	vs := make([]dev.Vectored, len(devs))
	for i, d := range devs {
		v, ok := d.(dev.Vectored)
		if !ok {
			return nil, fmt.Errorf("stripe: component %d (%T) has no ReadParts and WriteParts", i, d)
		}
		vs[i] = v
	}
	return vs, nil
}

// NumBlocks implements dev.BlockDev (data capacity; parity is not
// addressable).
func (f *Farm) NumBlocks() int64 { return f.total }

// Append adds a device to the end of a concatenated farm (on-line disk
// addition, §6.4) and returns its starting block; a striped farm refuses
// with ErrStriped.
func (f *Farm) Append(d dev.BlockDev) (int64, error) {
	if f.unit > 0 {
		return 0, ErrStriped
	}
	vs, err := vectored([]dev.BlockDev{d})
	if err != nil {
		return 0, err
	}
	start := f.total
	f.devs = append(f.devs, vs[0])
	f.starts = append(f.starts, start)
	f.failed = append(f.failed, false)
	f.total += d.NumBlocks()
	f.names = newFarmNames("stripe.concat", len(f.devs))
	return start, nil
}

// dataDisks is the number of data units per stripe row.
func (f *Farm) dataDisks() int64 {
	if f.parity {
		return int64(len(f.devs) - 1)
	}
	return int64(len(f.devs))
}

// parityDisk returns row r's parity spindle (-1 without parity).
func (f *Farm) parityDisk(row int64) int {
	if !f.parity {
		return -1
	}
	return int(row % int64(len(f.devs)))
}

// lane maps data-unit index j of a row to its spindle: the j-th disk
// skipping the row's parity disk.
func (f *Farm) lane(row int64, j int64) int {
	if !f.parity {
		return int(j)
	}
	pd := int64(f.parityDisk(row))
	if j >= pd {
		return int(j + 1)
	}
	return int(j)
}

// locate is the address map, the only layout-specific code of the data
// path: logical block blk lives at physical block phys of component disk,
// and run blocks from there on are contiguous on it. Concatenated, it is a
// binary search over the component start table (it sits on every block I/O
// of the file system); striped, row and lane arithmetic. disk is -1 for a
// block outside the farm.
func (f *Farm) locate(blk int64) (disk int, phys, run int64) {
	if blk < 0 || blk >= f.total {
		return -1, 0, 0
	}
	if f.unit == 0 {
		// The first component starting beyond blk; its predecessor holds blk.
		i := sort.Search(len(f.starts), func(i int) bool { return f.starts[i] > blk }) - 1
		off := blk - f.starts[i]
		return i, off, f.devs[i].NumBlocks() - off
	}
	su, off, nd := blk/f.unit, blk%f.unit, f.dataDisks()
	row, j := su/nd, su%nd
	return f.lane(row, j), row*f.unit + off, f.unit - off
}

// extent is a slice of a request that is contiguous on one component: pt
// moves its blocks to (or from) physical block pt.Blk of spindle disk, with
// the Keep and Lend of the part it was cut from.
type extent struct {
	disk int
	pt   dev.Part
}

// split cuts a validated request into extents, appending to dst: each part
// is cut where the address map cuts it (a stripe unit or a component ends).
// A striped request that needs more extents than dst holds gets one slice of
// its size; callers pass a small array of their own, which a concatenated
// request (one extent per part unless it crosses a component boundary) never
// outgrows in practice.
func (f *Farm) split(dst []extent, parts []dev.Part) []extent {
	if f.unit > 0 {
		n := 0
		for _, pt := range parts {
			n += int((end(pt)-1)/f.unit - pt.Blk/f.unit + 1)
		}
		if n > cap(dst) {
			dst = make([]extent, 0, n)
		}
	}
	for _, pt := range parts {
		blk, buf := pt.Blk, pt.Buf
		for len(buf) > 0 {
			disk, phys, n := f.locate(blk)
			n = min(n, int64(len(buf)/dev.BlockSize))
			piece := pt
			piece.Blk, piece.Buf = phys, buf[:n*dev.BlockSize]
			if len(piece.Buf) != len(pt.Buf) {
				piece.Lend = nil // a view is of the whole part or nothing
			}
			dst = append(dst, extent{disk: disk, pt: piece})
			buf = buf[n*dev.BlockSize:]
			blk += n
		}
	}
	return dst
}

// spindles is how many components' lists a request keeps in arrays on its
// caller's stack (perSpindle); a farm of more spindles puts them on the heap.
const spindles = 8

// perSpindle returns n slots: buf's first n, or n new ones when buf is short.
func perSpindle[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// byDisk collects the parts of exts by spindle into groups, one slot per
// component, in request order on each, skipping the spindles skip names:
// groups[d] is what runOps issues to component d. The groups are carved from
// one list of the farm's, which the caller hands back with putParts once the
// request has joined.
func (f *Farm) byDisk(groups [][]dev.Part, exts []extent, skip []bool) (flat []dev.Part) {
	if n := len(f.partLists); n > 0 && cap(f.partLists[n-1]) >= len(exts) {
		flat, f.partLists = f.partLists[n-1], f.partLists[:n-1]
	} else {
		flat = make([]dev.Part, 0, max(len(exts), 16))
	}
	for d := range f.devs {
		if skip[d] {
			continue
		}
		from := len(flat)
		for _, e := range exts {
			if e.disk == d {
				flat = append(flat, e.pt)
			}
		}
		groups[d] = flat[from:len(flat):len(flat)]
	}
	return flat
}

// putParts takes back a list byDisk handed out, dropping what it pointed at.
func (f *Farm) putParts(flat []dev.Part) {
	clear(flat)
	f.partLists = append(f.partLists, flat[:0])
}

// do validates a request — parts that each start at the block after the one
// before ends; a write is one part — opens its stripe-io trace stage
// (labelled with direction and size) and runs it.
func (f *Farm) do(p *sim.Proc, parts []dev.Part, write bool) error {
	blk, nb := int64(0), int64(0)
	if len(parts) > 0 {
		blk = parts[0].Blk
	}
	for _, pt := range parts {
		if len(pt.Buf)%dev.BlockSize != 0 || pt.Blk != blk+nb {
			return fmt.Errorf("stripe: %d bytes at block %d are not whole blocks following [%d,%d)", len(pt.Buf), pt.Blk, blk, blk+nb)
		}
		nb += int64(len(pt.Buf) / dev.BlockSize)
	}
	if blk < 0 || blk+nb > f.total {
		return fmt.Errorf("stripe: blocks [%d,%d) out of range [0,%d)", blk, blk+nb, f.total)
	}
	dir := "read"
	if write {
		dir = "write"
	}
	iv := obs.Begin(p, obs.KindStripeIO)
	var err error
	switch {
	case !write:
		err = f.readParts(p, parts)
	case f.parity:
		err = f.writeParity(p, blk, nb, parts[0].Buf, parts[0].Keep)
	default:
		err = f.writeBlocks(p, parts)
	}
	iv.End(nil, "", "", dir, obs.Arg{Key: "blk", Val: nb})
	return err
}

// ReadBlocks implements dev.BlockDev.
func (f *Farm) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return f.do(p, []dev.Part{{Blk: blk, Buf: buf}}, false)
}

// ReadParts reads into parts, each starting at the block after the one before
// ends, what ReadBlocks of their concatenation would, with the same component
// requests. A part with a Lend slot that one component serves whole may come
// back lent by it (dev.Part: a block, or a whole aligned extent); a degraded
// read reconstructs into Buf and lends nothing.
func (f *Farm) ReadParts(p *sim.Proc, parts []dev.Part) error {
	return f.do(p, parts, false)
}

// WriteBlocks implements dev.BlockDev.
func (f *Farm) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return f.do(p, []dev.Part{{Blk: blk, Buf: buf}}, true)
}

// AdoptBlocks implements dev.Adopter: WriteBlocks, except that every data
// write slices buf and hands it down kept (dev.Part), so a component may take
// whole extents of it by reference. A row's parity unit goes down as the XOR
// of its lanes (dev.Part.XorOf), kept too where every lane is immutable — a
// full row, or a partial one whose other lanes its disks lent (writeParity) —
// so a component may leave it pending until something reads it.
func (f *Farm) AdoptBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return f.do(p, []dev.Part{{Blk: blk, Buf: buf, Keep: true}}, true)
}

// KeepBlocks is the write of a staging line's partial segment, whose image the
// copy-out reads the line back into. On a concatenated farm it is WriteBlocks
// handing buf down kept (dev.Part), so a component may take whole extents of
// it by reference. On a striped or parity farm it is a plain WriteBlocks that
// keeps nothing, for ShareBlocks' reason.
func (f *Farm) KeepBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return f.do(p, []dev.Part{{Blk: blk, Buf: buf, Keep: f.unit == 0}}, true)
}

// ShareBlocks implements dev.Adopter. On a concatenated farm it is ReadBlocks
// handing buf down kept (dev.Part), so a component may keep whole extents of
// it. On a striped or parity farm it is a plain ReadBlocks that keeps nothing:
// a line shared there has no owned extents left for the next fetch into it
// to displace, so sharing costs allocations instead of saving them.
func (f *Farm) ShareBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return f.do(p, []dev.Part{{Blk: blk, Buf: buf, Keep: f.unit == 0}}, false)
}

func (f *Farm) readParts(p *sim.Proc, parts []dev.Part) error {
	var few [16]extent
	exts := f.split(few[:0], parts)
	var degraded []extent
	for _, e := range exts {
		if f.failed[e.disk] {
			if !f.parity {
				return fmt.Errorf("stripe: read of blocks on spindle %d: %w", e.disk, ErrComponentFailed)
			}
			degraded = append(degraded, e)
		}
	}
	var gs [spindles][]dev.Part
	var es [spindles]error
	groups, errs := perSpindle(gs[:], len(f.devs)), perSpindle(es[:], len(f.devs))
	flat := f.byDisk(groups, exts, f.failed)
	f.fanOut(p, &f.names.read, groups, nil, false, errs)
	f.putParts(flat)
	for d, err := range errs {
		if err == nil {
			continue
		}
		// A spindle refused the read (injected media fault, dying arm)
		// without being marked failed. With parity, serve its extents in
		// degraded mode — reconstruct from the survivors — instead of
		// failing the request; without parity the error stands.
		if !f.parity {
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
	return f.reconstruct(p, degraded)
}

// writeBlocks is the write path of a farm without parity.
func (f *Farm) writeBlocks(p *sim.Proc, parts []dev.Part) error {
	var few [4]extent
	exts := f.split(few[:0], parts)
	for _, e := range exts {
		if f.failed[e.disk] {
			return fmt.Errorf("stripe: write to blocks on spindle %d: %w", e.disk, ErrComponentFailed)
		}
	}
	return f.dispatch(p, &f.names.write, exts, true)
}

// Discard implements dev.Discarder, passing each component that is one its
// share of blocks [blk, blk+n). With parity it forgets only the rows that lie
// wholly inside the range, data lanes and parity unit alike on every spindle:
// every row it keeps still holds the XOR of its lanes in its parity unit.
func (f *Farm) Discard(blk, n int64) {
	blk, end := max(blk, 0), min(blk+n, f.total)
	if f.parity {
		row := f.dataDisks() * f.unit
		if lo, hi := (blk+row-1)/row, end/row; lo < hi {
			for _, d := range f.devs {
				discard(d, lo*f.unit, (hi-lo)*f.unit)
			}
		}
		return
	}
	for blk < end {
		disk, phys, run := f.locate(blk)
		run = min(run, end-blk)
		discard(f.devs[disk], phys, run)
		blk += run
	}
}

// discard passes blocks [blk, blk+n) of component d to it if d discards.
func discard(d dev.Vectored, blk, n int64) {
	if dc, ok := d.(dev.Discarder); ok {
		dc.Discard(blk, n)
	}
}

// Resident adds the extents each component holds to r, for the components
// that report it (dev.Disk.Resident), and returns each one's share in
// component order.
func (f *Farm) Resident(r dev.Resident) []int64 {
	out := make([]int64, len(f.devs))
	for i, d := range f.devs {
		if h, ok := d.(interface{ Resident(dev.Resident) int64 }); ok {
			out[i] = h.Resident(r)
		}
	}
	return out
}

// Flush implements dev.Flusher by draining the write cache of every
// component that has one, all components in parallel.
func (f *Farm) Flush(p *sim.Proc) error {
	tasks := make([]func(*sim.Proc) error, len(f.devs))
	for i, d := range f.devs {
		if fl, ok := d.(dev.Flusher); ok {
			tasks[i] = fl.Flush
		}
	}
	errs := make([]error, len(f.devs))
	f.fanOut(p, &f.names.flush, make([][]dev.Part, len(f.devs)), tasks, false, errs)
	return firstErr(errs)
}

// freeList is a farm's stock of scratch buffers (lanes and old parity a
// partial-row write reads back, reconstruction scratch), in power-of-two size
// classes: free[c] holds buffers of capacity 1<<c. None is ever in a kept
// dev.Part or the lane list of a kept parity unit, so no component holds on
// to it. It is a field of the farm, not a sync.Pool: the kernel runs one
// proc at a time and neither get nor put yields, so no lock is needed, and
// reuse depends only on the request sequence — never on when the garbage
// collector ran — so the bytes a run allocates repeat exactly.
type freeList [][][]byte

// poisonFreed makes put overwrite every returned buffer with 0xDB, so a
// slice used after its release corrupts data deterministically. Only test
// files set it.
var poisonFreed bool

// get returns a buffer of n bytes with arbitrary contents; every user
// overwrites it whole (a device read, a parity seed).
func (f *freeList) get(n int) []byte {
	c := bits.Len(uint(n - 1))
	if c < len(*f) {
		if l := (*f)[c]; len(l) > 0 {
			b := l[len(l)-1]
			(*f)[c] = l[:len(l)-1]
			return b[:n]
		}
	}
	return make([]byte, n, 1<<c)
}

// put takes back a buffer handed out by get, once nothing refers to it.
func (f *freeList) put(b []byte) {
	if poisonFreed {
		for i := range b {
			b[i] = 0xDB
		}
	}
	c := bits.Len(uint(cap(b) - 1))
	for len(*f) <= c {
		*f = append(*f, nil)
	}
	(*f)[c] = append((*f)[c], b)
}

// runOps issues one component's parts, sorted by physical block, in order
// from process p. A transfer is one extent of the request: a run of parts,
// each following the one before, inside one stripe unit (on a concatenated
// farm, inside the component) — one part, or one part per block for a
// lending read. A transfer and the next, when that starts where it ends, go
// down as one call over their parts (scatter-gather, as an HBA would do it),
// so adjacent stripe units cost the arm one rotation instead of two. A lone
// transfer of one plain part — one the component may neither keep nor lend,
// and not a parity unit named by its lanes (XorOf), which only WriteParts
// carries — is a plain ReadBlocks or WriteBlocks, the same transfer, so a
// wrapper that times those two calls of a component times every transfer of
// an unstriped farm but the kept and lending ones. Runs stop at two transfers: the schedule every
// striped baseline was recorded with (a third adjacent unit starts a new
// call).
func runOps(p *sim.Proc, d dev.Vectored, ops []dev.Part, unit int64, write bool) error {
	for len(ops) > 0 {
		n := transfer(ops, unit)
		if n < len(ops) && ops[n].Blk == end(ops[n-1]) {
			n += transfer(ops[n:], unit)
		}
		run := ops[:n]
		ops = ops[n:]
		lone := n == 1 && !run[0].Keep && run[0].Lend == nil && run[0].XorOf == nil
		var err error
		switch {
		case !write && lone:
			err = d.ReadBlocks(p, run[0].Blk, run[0].Buf)
		case !write:
			err = d.ReadParts(p, run)
		case lone:
			err = d.WriteBlocks(p, run[0].Blk, run[0].Buf)
		default:
			err = d.WriteParts(p, run)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// transfer returns how many parts at the head of ops make its first
// transfer (runOps).
func transfer(ops []dev.Part, unit int64) int {
	n := 1
	for n < len(ops) && ops[n].Blk == end(ops[n-1]) && (unit == 0 || ops[n].Blk/unit == ops[0].Blk/unit) {
		n++
	}
	return n
}

// end is the block after pt's last.
func end(pt dev.Part) int64 { return pt.Blk + int64(len(pt.Buf)/dev.BlockSize) }

// fanNames holds the proc and condition names of one kind of fan-out
// (a farm's reads, its writes, its flushes), built once per farm so a
// request formats no strings, and that kind's idle fans.
type fanNames struct {
	join string   // the joining condition variable
	proc []string // proc[i] runs component i's share
	free []*fan   // fans of this kind no fan-out holds
}

func newFanNames(name string, components int) fanNames {
	n := fanNames{join: name + ".join", proc: make([]string, components)}
	for i := range n.proc {
		n.proc[i] = fmt.Sprintf("%s[%d]", name, i)
	}
	return n
}

// farmNames is the fanNames of each kind of request a farm fans out.
type farmNames struct{ read, write, flush fanNames }

func newFarmNames(name string, components int) farmNames {
	return farmNames{
		read:  newFanNames(name+".read", components),
		write: newFanNames(name+".write", components),
		flush: newFanNames(name+".flush", components),
	}
}

// fan is what the processes of one fan-out need: each component's share and
// its error, and the join. A farm keeps its idle fans on their kind's list
// (fanNames.free), so fanning out builds no closure, condition variable or
// process per request: a fan makes its join once, and component i's process
// the first time i has a share, and restarts it later (all have returned when
// the join fires, and only the fan holds them).
type fan struct {
	groups [][]dev.Part
	tasks  []func(*sim.Proc) error
	errs   []error
	write  bool
	done   int
	join   *sim.Cond
	procs  []*sim.Proc // procs[i] runs component i's share, nil until first needed
}

// fanOut runs each component's share of a request and sets errs[i], zero on
// entry, to component i's error: its task where tasks has one (Flush), else
// its transfers groups[i] (runOps). A lone share runs inline in p —
// byte-identical in virtual time to the historical serial path, which keeps
// single-spindle baselines bit-for-bit unchanged — and takes nothing from the
// farm. Several each get their own simulated process, spawned in
// component-index order so kernel event sequence numbers (and thus every FIFO
// tie-break) are deterministic, and joined on the condition variable of a fan
// of names' kind.
func (f *Farm) fanOut(p *sim.Proc, names *fanNames, groups [][]dev.Part, tasks []func(*sim.Proc) error, write bool, errs []error) {
	busy, last := 0, -1
	for i := range errs {
		if len(groups[i]) > 0 || tasks != nil && tasks[i] != nil {
			busy++
			last = i
		}
	}
	switch busy {
	case 0:
		return
	case 1:
		errs[last] = f.share(p, last, groups, tasks, write)
		return
	}
	var fn *fan
	if n := len(names.free); n > 0 {
		fn, names.free = names.free[n-1], names.free[:n-1]
	} else {
		fn = f.newFan(p.Kernel(), names)
	}
	copy(fn.groups, groups)
	if tasks != nil {
		copy(fn.tasks, tasks)
	}
	fn.write = write
	k := p.Kernel()
	for i := range fn.procs {
		switch {
		case len(fn.groups[i]) == 0 && fn.tasks[i] == nil:
		case fn.procs[i] == nil:
			fn.procs[i] = k.Go(names.proc[i], f.shareIn(fn, i))
		default:
			k.Restart(fn.procs[i])
		}
	}
	for fn.done < busy {
		fn.join.Wait(p)
	}
	copy(errs, fn.errs)
	clear(fn.groups)
	clear(fn.tasks)
	clear(fn.errs)
	fn.done = 0
	names.free = append(names.free, fn)
}

// newFan makes a fan of names' kind.
func (f *Farm) newFan(k *sim.Kernel, names *fanNames) *fan {
	n := len(f.devs)
	fn := &fan{
		groups: make([][]dev.Part, n),
		tasks:  make([]func(*sim.Proc) error, n),
		errs:   make([]error, n),
		join:   k.NewCond(names.join),
		procs:  make([]*sim.Proc, n),
	}
	return fn
}

// shareIn is the body of fan fn's process for component i.
func (f *Farm) shareIn(fn *fan, i int) func(*sim.Proc) {
	return func(cp *sim.Proc) {
		fn.errs[i] = f.share(cp, i, fn.groups, fn.tasks, fn.write)
		fn.done++
		fn.join.Broadcast()
	}
}

// share runs component i's share of a fan-out in process p.
func (f *Farm) share(p *sim.Proc, i int, groups [][]dev.Part, tasks []func(*sim.Proc) error, write bool) error {
	if tasks != nil && tasks[i] != nil {
		return tasks[i](p)
	}
	return runOps(p, f.devs[i], groups[i], f.unit, write)
}

// dispatch issues exts, each component's in request order (byDisk), as one
// fan-out of the kind names names.
func (f *Farm) dispatch(p *sim.Proc, names *fanNames, exts []extent, write bool) error {
	var gs [spindles][]dev.Part
	var es [spindles]error
	groups, errs := perSpindle(gs[:], len(f.devs)), perSpindle(es[:], len(f.devs))
	flat := f.byDisk(groups, exts, f.failed)
	f.fanOut(p, names, groups, nil, write, errs)
	f.putParts(flat)
	return firstErr(errs)
}

// firstErr is a fan-out's verdict: the error of the lowest component that
// failed — a rule independent of completion order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
