// Package stripe implements the disk-farm pseudo-device drivers of §6.6:
// several independent disks presented as a single logical block address
// space. Concat reproduces the paper's simple concatenation; Interleave
// (interleave.go) adds true striping with an optional rotating parity.
// Both split spanning requests into per-component sub-requests and issue
// them on their own simulated processes, so independent disk arms overlap
// in virtual time.
package stripe

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/dev"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
)

// ioNote labels a stripe-io trace stage with direction and size.
func ioNote(write bool, buf []byte) string {
	dir := "read"
	if write {
		dir = "write"
	}
	return fmt.Sprintf("%s %d blk", dir, len(buf)/dev.BlockSize)
}

// Farm is the interface a disk-farm pseudo-device presents to the file
// system: block I/O, a whole-farm write-cache flush, and component
// introspection. Concat and Interleave implement it.
type Farm interface {
	dev.BlockDev
	Flush(p *sim.Proc) error
	Components() int
}

// Concat is a concatenation of block devices: component 0 owns blocks
// [0, n0), component 1 owns [n0, n0+n1), and so on.
type Concat struct {
	devs   []dev.BlockDev
	starts []int64 // starts[i] = first block of component i
	total  int64
	free   freeList
	names  farmNames
}

var _ Farm = (*Concat)(nil)

// ErrNoDevices is returned by New for an empty component list.
var ErrNoDevices = errors.New("stripe: no component devices")

// New returns the concatenation of devs, or ErrNoDevices if devs is empty.
func New(devs ...dev.BlockDev) (*Concat, error) {
	if len(devs) == 0 {
		return nil, ErrNoDevices
	}
	c := &Concat{devs: devs}
	for _, d := range devs {
		c.starts = append(c.starts, c.total)
		c.total += d.NumBlocks()
	}
	c.names = newFarmNames("stripe.concat", len(devs))
	return c, nil
}

// MustNew is New panicking on an empty component list — for tests and
// examples with static configurations.
func MustNew(devs ...dev.BlockDev) *Concat {
	c, err := New(devs...)
	if err != nil {
		panic(err)
	}
	return c
}

// NumBlocks implements dev.BlockDev.
func (c *Concat) NumBlocks() int64 { return c.total }

// Append adds a device to the end of the concatenation (on-line disk
// addition, §6.4) and returns its starting block.
func (c *Concat) Append(d dev.BlockDev) int64 {
	start := c.total
	c.devs = append(c.devs, d)
	c.starts = append(c.starts, start)
	c.total += d.NumBlocks()
	c.names = newFarmNames("stripe.concat", len(c.devs))
	return start
}

// Components reports the number of underlying devices.
func (c *Concat) Components() int { return len(c.devs) }

// Component returns underlying device i and its starting block.
func (c *Concat) Component(i int) (dev.BlockDev, int64) {
	return c.devs[i], c.starts[i]
}

// locate finds the component holding blk by binary search over the
// component start table (it sits on every block I/O of the file system).
func (c *Concat) locate(blk int64) (int, int64) {
	if blk < 0 || blk >= c.total {
		return -1, 0
	}
	// The first component starting beyond blk; its predecessor holds blk.
	i := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > blk }) - 1
	return i, blk - c.starts[i]
}

func (c *Concat) do(p *sim.Proc, blk int64, buf []byte, write bool) error {
	if len(buf)%dev.BlockSize != 0 {
		return fmt.Errorf("stripe: buffer %d bytes not block-aligned", len(buf))
	}
	nb := int64(len(buf) / dev.BlockSize)
	if blk < 0 || blk+nb > c.total {
		return fmt.Errorf("stripe: blocks [%d,%d) out of range [0,%d)", blk, blk+nb, c.total)
	}
	tr := reqtrace.From(p)
	var note string
	if tr != nil {
		note = ioNote(write, buf)
	}
	groups := make([][]op, len(c.devs))
	for nb > 0 {
		i, off := c.locate(blk)
		if i < 0 {
			return fmt.Errorf("stripe: no component for block %d", blk)
		}
		span := c.devs[i].NumBlocks() - off
		if span > nb {
			span = nb
		}
		groups[i] = append(groups[i], op{d: c.devs[i], blk: off, buf: buf[:span*dev.BlockSize]})
		buf = buf[span*dev.BlockSize:]
		blk += span
		nb -= span
	}
	st := tr.StageStart(reqtrace.KindStripeIO, p.Now(), note)
	names := &c.names.read
	if write {
		names = &c.names.write
	}
	err := dispatch(p, names, &c.free, groups, write)
	tr.StageEnd(st, p.Now())
	return err
}

// ReadBlocks implements dev.BlockDev.
func (c *Concat) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return c.do(p, blk, buf, false)
}

// WriteBlocks implements dev.BlockDev.
func (c *Concat) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return c.do(p, blk, buf, true)
}

// Flush implements dev.Flusher by draining the write cache of every
// component that has one, all components in parallel.
func (c *Concat) Flush(p *sim.Proc) error {
	return flushAll(p, &c.names.flush, c.devs)
}

// freeList is a farm's stock of transfer buffers (bounce buffers, parity
// units, reconstruction scratch), kept in power-of-two size classes:
// free[c] holds buffers of capacity 1<<c. It is a field of the farm, not a
// sync.Pool: the kernel runs one proc at a time and neither get nor put
// yields, so no lock is needed, and reuse depends only on the request
// sequence — never on when the garbage collector ran — so the bytes a run
// allocates repeat exactly.
type freeList [][][]byte

// poisonFreed makes put overwrite every returned buffer with 0xDB, so a
// slice used after its release corrupts data deterministically. Only test
// files set it.
var poisonFreed bool

// get returns a buffer of n bytes with arbitrary contents; every user
// overwrites it whole (a device read, a gather copy, a parity seed).
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

// op is one contiguous transfer against a single component device. When a
// striped request maps several stripe units to physically adjacent blocks
// of one spindle, coalesce merges them into a single transfer through a
// bounce buffer; scatter then lists the request slices the bounce buffer
// is copied back to after a read (scatter-gather, as an HBA would do it).
type op struct {
	d       dev.BlockDev
	blk     int64
	buf     []byte
	scatter [][]byte // non-nil: buf is a bounce buffer from the farm's free list
}

// coalesce merges physically adjacent transfers of one component into
// single larger ops, so a request striped across N spindles costs each
// arm one rotation instead of one per stripe unit. The ops must be sorted
// by physical block, which Interleave's row-order split and Concat's
// span-order split both produce for a contiguous request. Bounce buffers
// are drawn from free; the caller puts them back once the ops have run.
func coalesce(free *freeList, g []op, write bool) []op {
	out := g[:0]
	for _, o := range g {
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if o.blk == prev.blk+int64(len(prev.buf)/dev.BlockSize) {
				if prev.scatter == nil {
					prev.scatter = [][]byte{prev.buf}
				}
				prev.scatter = append(prev.scatter, o.buf)
				continue
			}
		}
		out = append(out, o)
	}
	for i := range out {
		o := &out[i]
		if o.scatter == nil {
			continue
		}
		total := 0
		for _, part := range o.scatter {
			total += len(part)
		}
		o.buf = free.get(total)
		if write {
			off := 0
			for _, part := range o.scatter {
				off += copy(o.buf[off:], part)
			}
		}
	}
	return out
}

// runOps issues a component's transfers in order from process p.
func runOps(p *sim.Proc, ops []op, write bool) error {
	for _, o := range ops {
		var err error
		if write {
			err = o.d.WriteBlocks(p, o.blk, o.buf)
		} else {
			err = o.d.ReadBlocks(p, o.blk, o.buf)
		}
		if err != nil {
			return err
		}
		if o.scatter != nil && !write {
			off := 0
			for _, part := range o.scatter {
				off += copy(part, o.buf[off:])
			}
		}
	}
	return nil
}

// fanNames holds the proc and condition names of one kind of fan-out
// (a farm's reads, its writes, its flushes), built once per farm so a
// request formats no strings.
type fanNames struct {
	join string   // the joining condition variable
	proc []string // proc[i] runs component i's task
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

// fanout runs the non-nil tasks, one per component index. A single task
// runs inline in the caller's process — byte-identical in virtual time to
// the historical serial path, which keeps single-spindle baselines
// bit-for-bit unchanged. Several tasks each get their own simulated
// process, spawned in component-index order so kernel event sequence
// numbers (and thus every FIFO tie-break) are deterministic, and joined on
// a condition variable. The join is first-error-wins with the lowest
// component index winning — a rule independent of completion order.
func fanout(p *sim.Proc, names *fanNames, tasks []func(*sim.Proc) error) error {
	for _, err := range fanoutAll(p, names, tasks) {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanoutAll is fanout returning every component's error by index instead
// of just the first — the degraded-read path needs to know *which* spindle
// refused so it can reconstruct exactly those extents from the survivors.
// The execution schedule (inline single task, spawn order, join) is
// identical to fanout's.
func fanoutAll(p *sim.Proc, names *fanNames, tasks []func(*sim.Proc) error) []error {
	errs := make([]error, len(tasks))
	busy, last := 0, -1
	for i, t := range tasks {
		if t != nil {
			busy++
			last = i
		}
	}
	switch busy {
	case 0:
		return errs
	case 1:
		errs[last] = tasks[last](p)
		return errs
	}
	k := p.Kernel()
	done := 0
	join := k.NewCond(names.join)
	for i, t := range tasks {
		if t == nil {
			continue
		}
		i, t := i, t
		k.Go(names.proc[i], func(cp *sim.Proc) {
			errs[i] = t(cp)
			done++
			join.Broadcast()
		})
	}
	for done < busy {
		join.Wait(p)
	}
	return errs
}

// dispatch executes per-component op lists through fanout, coalescing
// each component's adjacent transfers first.
func dispatch(p *sim.Proc, names *fanNames, free *freeList, groups [][]op, write bool) error {
	for _, err := range dispatchAll(p, names, free, groups, write) {
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatchAll is dispatch returning per-component errors (fanoutAll). The
// bounce buffers coalesce drew go back to free once every component has
// joined, whether or not one failed.
func dispatchAll(p *sim.Proc, names *fanNames, free *freeList, groups [][]op, write bool) []error {
	tasks := make([]func(*sim.Proc) error, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		cg := coalesce(free, g, write)
		groups[i] = cg
		tasks[i] = func(cp *sim.Proc) error { return runOps(cp, cg, write) }
	}
	errs := fanoutAll(p, names, tasks)
	for _, g := range groups {
		for _, o := range g {
			if o.scatter != nil {
				free.put(o.buf)
			}
		}
	}
	return errs
}

// flushAll drains every component's write cache in parallel.
func flushAll(p *sim.Proc, names *fanNames, devs []dev.BlockDev) error {
	tasks := make([]func(*sim.Proc) error, len(devs))
	for i, d := range devs {
		f, ok := d.(dev.Flusher)
		if !ok {
			continue
		}
		tasks[i] = func(cp *sim.Proc) error { return f.Flush(cp) }
	}
	return fanout(p, names, tasks)
}
