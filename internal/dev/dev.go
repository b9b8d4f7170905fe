// Package dev models timed block devices: magnetic disks with a seek /
// rotation / media-transfer cost model, and the shared SCSI bus.
//
// Timing profiles are calibrated so that the raw sequential 1 MB transfer
// rates match Table 5 of the HighLight paper (RZ57, RZ58, magneto-optic
// drive; the HP7958A is inferred from Table 6). Disk-arm contention — the
// central effect in the paper's migration benchmarks — emerges naturally:
// each disk's arm is a FIFO sim.Resource, and interleaved request streams to
// distant regions pay long seeks.
package dev

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// BlockSize is the file system block size in bytes (§6.2 of the paper:
// 4-kilobyte units addressed by 32-bit block pointers).
const BlockSize = 4096

// Fault classes. Injected device errors (Disk.Fault, jukebox Fault hooks)
// wrap one of these sentinels so the recovery layer in internal/tertiary
// can classify a failure without knowing which injector produced it:
// transient errors are retried with backoff, permanent errors retire the
// affected segment.
var (
	// ErrTransientMedia is a recoverable media error (dust, vibration,
	// marginal signal): the same operation may succeed when retried.
	ErrTransientMedia = errors.New("dev: transient media error")
	// ErrPermanentMedia is an unrecoverable media defect: every retry of
	// an operation on the affected region fails.
	ErrPermanentMedia = errors.New("dev: permanent media error")
)

// BlockDev is a random-access array of fixed-size blocks with timed I/O.
// Reads of never-written blocks return zeroes.
//
// Callers recycle their buffers (the farm's free list in package stripe,
// the block free list and assembly buffer in package lfs), which rests on
// two properties every implementation keeps and the contract test in
// package stripe checks:
//
//   - a successful ReadBlocks fills every byte of buf, whatever it held
//     before — zeroes for never-written blocks;
//   - WriteBlocks takes what it needs from buf before it returns and keeps
//     no reference to it: the caller may overwrite buf at once without
//     changing what later reads return. Until it returns, buf must not
//     change.
type BlockDev interface {
	// ReadBlocks reads len(buf) bytes (a multiple of BlockSize) starting
	// at block blk, overwriting all of buf.
	ReadBlocks(p *sim.Proc, blk int64, buf []byte) error
	// WriteBlocks writes len(buf) bytes (a multiple of BlockSize)
	// starting at block blk; buf is the caller's again on return.
	WriteBlocks(p *sim.Proc, blk int64, buf []byte) error
	// NumBlocks reports the device capacity in blocks.
	NumBlocks() int64
}

// Adopter is a BlockDev that can hand a transfer's bytes over by reference
// instead of copying them. AdoptBlocks costs what WriteBlocks costs and reads
// back the same, but it may keep buf: the caller hands it over for good and
// must never change it again (a jukebox's lent segment image, which never
// changes). ShareBlocks costs, counts and records what ReadBlocks does and
// fills buf the same, and then it may keep buf as its own copy of the range:
// again the caller must never change it (a copy-out's segment image, which
// the changer keeps too). Either way a later write into the range copies
// before it changes anything, so buf stays as it was.
type Adopter interface {
	BlockDev
	AdoptBlocks(p *sim.Proc, blk int64, buf []byte) error
	ShareBlocks(p *sim.Proc, blk int64, buf []byte) error
}

// Part is one piece of a vectored transfer: Buf holds the blocks from Blk on.
// Keep marks Buf as handed over, as AdoptBlocks (a write) or ShareBlocks (a
// read) takes it: the device may keep it, and the caller never changes it
// again. A disk takes a kept write's whole extents when the first chunk
// reaching each is applied, so a reader racing the write between two chunks,
// or a Cut falling there, may see an extent's later blocks one chunk early.
//
// Lend, on a read of one block or of one whole, aligned 64 KB extent, lets
// the device answer with a view instead of filling Buf: where those bytes lie
// in an extent the device does not own and that never changes (one an
// adoption or a share took), it sets *Lend to a read-only view of them and
// leaves Buf as it was. The caller must never write through the view; a
// device that owns the bytes or has a write cache fills Buf and leaves *Lend
// alone. A write ignores Lend.
//
// XorOf, on a write, says the part's bytes are the XOR of the buffers it
// lists, each as long as Buf. The device computes that XOR where it needs the
// bytes, into storage of its own: it neither reads nor writes Buf, which
// gives only the part's length (a caller may pass one of the listed buffers).
// With Keep set too the list and its buffers are handed over, never to change
// (a parity unit of lanes a fetch adopted): then a device that could keep
// them may store the list in place of the XOR and compute it when something
// first reads the blocks. A read ignores XorOf.
type Part struct {
	Blk   int64
	Buf   []byte
	Keep  bool
	Lend  *[]byte
	XorOf *[][]byte
}

// Vectored is a BlockDev that moves a list of parts, each starting at the
// block after the one before it ends, as one request: it costs, counts and
// reads back exactly as a ReadBlocks or WriteBlocks of their concatenation
// would, so a caller gathers or scatters without a bounce buffer.
type Vectored interface {
	BlockDev
	ReadParts(p *sim.Proc, parts []Part) error
	WriteParts(p *sim.Proc, parts []Part) error
}

// Discarder is a device told that some of its blocks hold nothing anyone will
// read again (a TRIM): it may forget them, after which each reads as zeroes or
// as before. Discard takes no time, consults no fault hook, counts no event of
// a Cut; it is bookkeeping of the host, not a request to the simulated device.
type Discarder interface {
	Discard(blk, n int64)
}

// Cut is a power cut planned at event Target of the devices sharing it, which
// count their events in N (see Disk.Cut and jukebox.Jukebox.Cut). At runs
// there, with exactly the first Target events on the media. Only the piece of
// a write the cut falls inside is applied, and counted, an event at a time.
type Cut struct {
	N, Target int64
	At        func()
}

// Inside reports whether the cut falls inside the next n events (nil: never).
func (c *Cut) Inside(n int) bool {
	return c != nil && c.N < c.Target && c.Target <= c.N+int64(n)
}

// Tick counts n applied events and runs At if the cut falls at the last.
func (c *Cut) Tick(n int) {
	if c != nil {
		c.N += int64(n)
		if c.N == c.Target {
			c.At()
		}
	}
}

// Bus is a shared I/O bus (e.g. one SCSI chain). Devices hold the bus for
// the host-transfer portion of each request; the robotic autochanger in
// package jukebox holds it for entire media swaps, reproducing the
// non-disconnecting driver described in §7 of the paper.
type Bus struct {
	res  *sim.Resource
	rate int64 // bytes per second
}

// NewBus returns a bus transferring at rate bytes/second.
func NewBus(k *sim.Kernel, name string, rate int64) *Bus {
	return &Bus{res: k.NewResource(name), rate: rate}
}

// Transfer holds the bus for the time needed to move n bytes.
func (b *Bus) Transfer(p *sim.Proc, n int) {
	if b == nil || n <= 0 {
		return
	}
	b.res.Acquire(p)
	p.Sleep(xfer(n, b.rate))
	b.res.Release(p)
}

// Hold occupies the bus for d of virtual time (used by media swaps).
func (b *Bus) Hold(p *sim.Proc, d sim.Time) {
	if b == nil {
		return
	}
	b.res.Acquire(p)
	p.Sleep(d)
	b.res.Release(p)
}

// BusyTotal reports cumulative bus occupancy.
func (b *Bus) BusyTotal() sim.Time { return b.res.BusyTotal() }

// WaitTotal reports cumulative time spent waiting for the bus.
func (b *Bus) WaitTotal() sim.Time { return b.res.WaitTotal() }

// xfer converts a byte count and a byte/second rate into a duration.
func xfer(n int, rate int64) sim.Time {
	if rate <= 0 {
		return 0
	}
	return sim.Time(float64(n) / float64(rate) * float64(time.Second))
}

// DiskProfile is the timing model of one disk model.
//
// A request for n bytes at block blk costs:
//
//	seek(|blk-headPos|) + Rotation + n/MediaRead(Write)   (arm held)
//	n/bus rate                                            (bus held)
//
// seek(0) = 0; seek(d) scales linearly from SeekMin (1 block) to SeekMax
// (full stroke). Rotation is charged on every discrete request — even a
// logically sequential one — because by the time the host issues the next
// request the platter has rotated past (the paper's FFS/LFS numbers for
// single-block reads show exactly this). A single large request pays it
// only once, which is why clustering wins.
type DiskProfile struct {
	Name       string
	SeekMin    sim.Time
	SeekMax    sim.Time
	Rotation   sim.Time
	MediaRead  int64 // bytes/second off the platter
	MediaWrite int64 // bytes/second onto the platter
}

// maxTransfer is the largest single media transfer (the 4.4BSD MAXPHYS
// limit on raw-device I/O: 64 KB). Larger requests split into chunks, and
// the arm is re-arbitrated between chunks — which is how competing request
// streams interleave and seek-thrash against each other (the disk-arm
// contention of Table 6).
const maxTransfer = 64 * 1024

// Calibrated profiles. Media rates are solved from Table 5's effective
// sequential 1 MB transfer rates R via
//
//	1 MB/R = 16*Rotation + 1 MB/Media + 1 MB/BusRate     (BusRate 3.9 MB/s)
//
// (a 1 MB raw transfer issues 16 MAXPHYS chunks, each paying a rotational
// delay) so that the Table 5 bench reproduces the paper's numbers.
var (
	// RZ57: Table 5 measures 1417 KB/s read, 993 KB/s write.
	RZ57 = DiskProfile{
		Name:       "RZ57",
		SeekMin:    4 * time.Millisecond,
		SeekMax:    35 * time.Millisecond,
		Rotation:   8300 * time.Microsecond,
		MediaRead:  3129 * 1024,
		MediaWrite: 1610 * 1024,
	}
	// RZ58: Table 5 measures 1491 KB/s read, 1261 KB/s write (read
	// likely SCSI-I bus limited, per the paper's note).
	RZ58 = DiskProfile{
		Name:       "RZ58",
		SeekMin:    3 * time.Millisecond,
		SeekMax:    30 * time.Millisecond,
		Rotation:   8300 * time.Microsecond,
		MediaRead:  3514 * 1024,
		MediaWrite: 2458 * 1024,
	}
	// HP7958A: a slower HP-IB connected disk; the paper reports no raw
	// numbers, only that staging on it degrades migration significantly
	// (Table 6). Effective rates are chosen to land the Table 6 row.
	HP7958A = DiskProfile{
		Name:       "HP7958A",
		SeekMin:    6 * time.Millisecond,
		SeekMax:    55 * time.Millisecond,
		Rotation:   16700 * time.Microsecond,
		MediaRead:  577 * 1024,
		MediaWrite: 300 * 1024,
	}
)

// SCSIBusRate is the modelled SCSI-I host transfer rate.
const SCSIBusRate = 3900 * 1024

// DiskStats accumulates per-device counters.
type DiskStats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	SeekTime, RotTime       sim.Time
	MediaTime               sim.Time
	ReadFaults, WriteFaults int64 // operations aborted by the Fault hook
	Destages                int64 // dirty blocks moved from write cache to media
}

// Flusher is a device with a volatile write cache that must be drained
// explicitly before its contents are durable. File-system sync and
// checkpoint points call Flush as a write barrier.
type Flusher interface {
	Flush(p *sim.Proc) error
}

// Disk is a timed magnetic disk with a sparse in-memory backing store.
//
// With EnableWriteCache, the disk models a bounded volatile write-back
// cache: acknowledged writes sit in the cache (readable back) until they
// are destaged — by FIFO overflow or an explicit Flush. A simulated power
// cut (SaveStore, then LoadStore into a fresh disk) keeps only destaged
// blocks, so sync-ordering bugs in the file system above become visible. The cache changes *durability*
// semantics only; request timing is identical with or without it, keeping
// the calibrated Table 5/6 numbers intact.
type Disk struct {
	k       *sim.Kernel
	prof    DiskProfile
	nblocks int64
	arm     *sim.Resource
	bus     *Bus
	head    int64 // current arm position, in blocks
	store   media
	stats   DiskStats

	wcap   int              // write-cache capacity in blocks; 0 = write-through
	wdirty map[int64][]byte // cached-but-not-durable blocks
	worder []int64          // FIFO destage order of wdirty keys
	wfree  [][]byte         // destaged cache blocks awaiting reuse by cacheWrite
	xblk   []byte           // one block of an XorOf part, on its way to the cache or a cut

	obs        *obs.Obs // nil = not instrumented
	track      string
	rlat, wlat *obs.Histogram

	// Fault, if non-nil, is consulted before each operation; a non-nil
	// return aborts the request with that error (fault injection).
	Fault func(op string, blk int64) error

	// Cut, if non-nil, counts an event for every block reaching the platter,
	// written through or destaged.
	Cut *Cut
}

// NewDisk returns a disk of nblocks blocks attached to bus (which may be
// nil for a private channel, e.g. HP-IB).
func NewDisk(k *sim.Kernel, prof DiskProfile, nblocks int64, bus *Bus) *Disk {
	return &Disk{
		k:       k,
		prof:    prof,
		nblocks: nblocks,
		arm:     k.NewResource(prof.Name + ".arm"),
		bus:     bus,
		store:   newMedia(nblocks),
	}
}

// NumBlocks reports the disk capacity in blocks.
func (d *Disk) NumBlocks() int64 { return d.nblocks }

// EnableWriteCache turns on the volatile write-back cache, bounded at
// nblocks dirty blocks. Writes beyond the bound destage the oldest dirty
// block first (FIFO), so media-apply order equals write-acknowledge order —
// the property the LFS checkpoint barrier protocol relies on.
func (d *Disk) EnableWriteCache(nblocks int) {
	if nblocks <= 0 {
		d.wcap = 0
		d.flushCacheNow()
		return
	}
	d.wcap = nblocks
	if d.wdirty == nil {
		d.wdirty = make(map[int64][]byte)
	}
}

// WriteCacheDirty reports the number of blocks sitting in the volatile
// write cache (0 in write-through mode).
func (d *Disk) WriteCacheDirty() int { return len(d.worder) }

// apply writes data from block blk on a block at a time, into the write cache
// or onto the platter: a cut at block i sees blocks up to i new, the rest old.
func (d *Disk) apply(blk int64, data []byte) {
	for ; len(data) > 0; blk, data = blk+1, data[BlockSize:] {
		if d.wcap > 0 {
			d.cacheWrite(blk, data[:BlockSize])
			continue
		}
		d.store.write(blk, data[:BlockSize])
		d.Cut.Tick(1)
	}
}

// destageOldest moves the FIFO-oldest dirty block to the platter.
func (d *Disk) destageOldest() {
	blk := d.worder[0]
	d.worder = d.worder[:copy(d.worder, d.worder[1:])] // in place: the queue is short and never regrows
	data := d.wdirty[blk]
	delete(d.wdirty, blk)
	d.store.write(blk, data)
	d.Cut.Tick(1)
	d.wfree = append(d.wfree, data) // the platter copied it; the cache block is free again
	d.stats.Destages++
}

// cacheWrite absorbs one block into the write cache, destaging on
// overflow. A rewrite of a cached block updates it in place, keeping its
// original FIFO position (it must not become durable later than a block
// written before it).
func (d *Disk) cacheWrite(blk int64, data []byte) {
	if old, ok := d.wdirty[blk]; ok {
		copy(old, data)
		return
	}
	var buf []byte
	if n := len(d.wfree); n > 0 {
		buf, d.wfree = d.wfree[n-1], d.wfree[:n-1]
	} else {
		buf = make([]byte, BlockSize)
	}
	copy(buf, data)
	d.wdirty[blk] = buf
	d.worder = append(d.worder, blk)
	for len(d.worder) > d.wcap {
		d.destageOldest()
	}
}

// flushCacheNow destages every dirty block (no virtual-time cost: the
// media time was charged when the write was accepted).
func (d *Disk) flushCacheNow() {
	for len(d.worder) > 0 {
		d.destageOldest()
	}
}

// Flush drains the volatile write cache; on return every acknowledged
// write is durable. It implements Flusher. No virtual time is charged —
// the timing model charges full media cost at write time, so the cache
// alters durability only.
func (d *Disk) Flush(p *sim.Proc) error {
	d.flushCacheNow()
	return nil
}

// SetObs attaches an observability domain: every read/write emits a
// span (covering arm wait + seek + rotation + media + bus) on the given
// track, plus a request-latency histogram. track defaults to the
// profile name. Instrumentation charges no virtual time.
func (d *Disk) SetObs(o *obs.Obs, track string) {
	if track == "" {
		track = d.prof.Name
	}
	d.obs, d.track = o, track
	d.rlat = o.Histogram("disk."+track+".read_latency", obs.LatencyBounds)
	d.wlat = o.Histogram("disk."+track+".write_latency", obs.LatencyBounds)
}

// Profile reports the timing profile.
func (d *Disk) Profile() DiskProfile { return d.prof }

// Stats returns a snapshot of the per-device counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// ArmWaitTotal reports cumulative virtual time spent waiting for the arm —
// the direct measure of disk-arm contention.
func (d *Disk) ArmWaitTotal() sim.Time { return d.arm.WaitTotal() }

// ArmBusyTotal reports cumulative virtual time the arm was held.
func (d *Disk) ArmBusyTotal() sim.Time { return d.arm.BusyTotal() }

// checkParts checks that parts are whole blocks, each following the one
// before, inside the disk, and returns their first block and total bytes.
func (d *Disk) checkParts(op string, parts []Part) (blk int64, n int, err error) {
	if len(parts) > 0 {
		blk = parts[0].Blk
	}
	for _, pt := range parts {
		if len(pt.Buf)%BlockSize != 0 || pt.Blk != blk+int64(n/BlockSize) {
			return 0, 0, fmt.Errorf("dev: %s %s: %d bytes at block %d are not whole blocks following [%d,%d)",
				d.prof.Name, op, len(pt.Buf), pt.Blk, blk, blk+int64(n/BlockSize))
		}
		n += len(pt.Buf)
	}
	if nb := int64(n / BlockSize); blk < 0 || blk+nb > d.nblocks {
		return 0, 0, fmt.Errorf("dev: %s %s: blocks [%d,%d) out of range [0,%d)", d.prof.Name, op, blk, blk+nb, d.nblocks)
	}
	return blk, n, nil
}

// cursor walks the parts of a request a piece at a time.
type cursor struct {
	parts []Part
	off   int // bytes of parts[0] already taken
}

// take returns the next piece: up to n bytes, all of one part.
func (c *cursor) take(n int) Part {
	for c.off == len(c.parts[0].Buf) {
		c.parts, c.off = c.parts[1:], 0
	}
	pt := c.parts[0]
	pt.Blk += int64(c.off / BlockSize)
	pt.Buf = pt.Buf[c.off:min(len(pt.Buf), c.off+n)]
	if len(pt.Buf) != len(c.parts[0].Buf) {
		pt.Lend = nil // a view is of the whole part or nothing
	}
	c.off += len(pt.Buf)
	return pt
}

// seekTime is the arm movement cost for a request starting at blk. The
// curve is concave (square root of the fractional distance), as on real
// disks: short seeks pay most of the fixed settle cost, and the cost
// saturates toward SeekMax at full stroke.
func (d *Disk) seekTime(blk int64) sim.Time {
	dist := blk - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	span := d.nblocks - 1
	if span < 1 {
		span = 1
	}
	frac := math.Sqrt(float64(dist) / float64(span))
	return d.prof.SeekMin + sim.Time(float64(d.prof.SeekMax-d.prof.SeekMin)*frac)
}

// ReadBlocks implements BlockDev: ReadParts of buf alone.
func (d *Disk) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.ReadParts(p, []Part{{Blk: blk, Buf: buf}})
}

// WriteBlocks implements BlockDev: WriteParts of buf alone.
func (d *Disk) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.WriteParts(p, []Part{{Blk: blk, Buf: buf}})
}

// AdoptBlocks implements Adopter: WriteParts of buf alone, kept.
func (d *Disk) AdoptBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.WriteParts(p, []Part{{Blk: blk, Buf: buf, Keep: true}})
}

// ShareBlocks implements Adopter: ReadParts of buf alone, kept.
func (d *Disk) ShareBlocks(p *sim.Proc, blk int64, buf []byte) error {
	return d.ReadParts(p, []Part{{Blk: blk, Buf: buf, Keep: true}})
}

// Discard implements Discarder: blocks [blk, blk+n), clipped to the disk, read
// as zeroes afterwards, leave SaveStore's image and the volatile write cache,
// and their extents go to the collector when nothing written is left in them.
func (d *Disk) Discard(blk, n int64) {
	blk, end := max(blk, 0), min(blk+n, d.nblocks)
	d.store.discard(blk, end-blk)
	d.worder = slices.DeleteFunc(d.worder, func(b int64) bool {
		gone := b >= blk && b < end
		if gone {
			d.wfree = append(d.wfree, d.wdirty[b])
			delete(d.wdirty, b)
		}
		return gone
	})
}

// Resident adds the extents the disk's media hold to r and returns the bytes
// that r did not hold yet.
func (d *Disk) Resident(r Resident) int64 { return d.store.held(r) }

// ReadParts implements Vectored. A request larger than maxTransfer is split
// into MAXPHYS-sized chunks, across part boundaries, with the arm
// re-arbitrated in between, so concurrent streams interleave (and pay seeks
// against each other). A write-through disk keeps each whole, aligned 64 KB
// piece of a kept part, once filled, in place of its own extent, and lends
// each part of one block or one whole extent that asks for it from an extent
// it does not own; a write cache keeps and lends nothing, as WriteParts
// copies. Lending changes no state of the media.
func (d *Disk) ReadParts(p *sim.Proc, parts []Part) error {
	blk, left, err := d.checkParts("read", parts)
	if err != nil {
		return err
	}
	if d.Fault != nil {
		if err := d.Fault("read", blk); err != nil {
			d.stats.ReadFaults++
			d.obs.Instant(d.track, "disk.fault", "read", obs.Arg{Key: "blk", Val: blk})
			return err
		}
	}
	t0, blk0, n0 := p.Now(), blk, left
	c := cursor{parts: parts}
	for left > 0 {
		n := min(left, maxTransfer)
		d.arm.Acquire(p)
		st := d.seekTime(blk)
		d.stats.SeekTime += st
		d.stats.RotTime += d.prof.Rotation
		media := xfer(n, d.prof.MediaRead)
		d.stats.MediaTime += media
		p.Sleep(st + d.prof.Rotation + media)
		plain := d.wcap == 0
		for got := 0; got < n; {
			pt := c.take(n - got)
			got += len(pt.Buf)
			if pt.Lend != nil && plain && (len(pt.Buf) == BlockSize || len(pt.Buf) == maxTransfer) {
				if v := d.store.lend(pt.Blk, len(pt.Buf)); v != nil {
					*pt.Lend = v
					continue
				}
			}
			d.store.read(pt.Blk, pt.Buf)
			// Read-your-writes: the volatile cache, while it holds anything, is newer.
			for i := 0; i < len(pt.Buf) && len(d.worder) > 0; i += BlockSize {
				if src, ok := d.wdirty[pt.Blk+int64(i/BlockSize)]; ok {
					copy(pt.Buf[i:], src)
				}
			}
			if pt.Keep && plain {
				d.store.share(pt.Blk, pt.Buf)
			}
		}
		blk += int64(n / BlockSize)
		d.head = blk
		d.arm.Release(p)
		d.bus.Transfer(p, n)
		d.stats.BytesRead += int64(n)
		left -= n
	}
	d.stats.Reads++
	if d.obs != nil {
		d.obs.Span(d.track, "disk.read", "read", t0,
			obs.Arg{Key: "blk", Val: blk0}, obs.Arg{Key: "bytes", Val: int64(n0)})
		d.rlat.Observe(p.Now() - t0)
	}
	return nil
}

// WriteParts implements Vectored, with the same MAXPHYS chunking as ReadParts.
// A write-through disk takes every whole 64 KB extent a kept part covers by
// reference, wherever the part starts, and copies the part's ends; a write
// cache copies every part, and so does the piece a Cut falls inside (decided
// per piece: other devices tick it between chunks). A part with XorOf is its
// XOR, computed as each piece is applied: straight into the disk's own extents,
// or a block at a time on its way to the write cache or the cut. Where the part
// is kept and the disk keeps it, the XOR of each whole extent stays pending in
// the media until something reads it.
func (d *Disk) WriteParts(p *sim.Proc, parts []Part) error {
	blk, left, err := d.checkParts("write", parts)
	if err != nil {
		return err
	}
	if d.Fault != nil {
		if err := d.Fault("write", blk); err != nil {
			d.stats.WriteFaults++
			d.obs.Instant(d.track, "disk.fault", "write", obs.Arg{Key: "blk", Val: blk})
			return err
		}
	}
	t0, blk0, n0 := p.Now(), blk, left
	c := cursor{parts: parts}
	for left > 0 {
		n := min(left, maxTransfer)
		d.bus.Transfer(p, n)
		d.arm.Acquire(p)
		st := d.seekTime(blk)
		d.stats.SeekTime += st
		d.stats.RotTime += d.prof.Rotation
		media := xfer(n, d.prof.MediaWrite)
		d.stats.MediaTime += media
		p.Sleep(st + d.prof.Rotation + media)
		for got := 0; got < n; {
			pt := c.take(n - got)
			part := c.parts[0] // the part pt was cut from
			whole := d.wcap == 0 && !d.Cut.Inside(len(pt.Buf)/BlockSize)
			switch {
			case whole && pt.Keep:
				d.store.keep(part, pt.Blk, pt.Buf)
			case whole && pt.XorOf != nil:
				d.store.writeXor(pt.Blk, len(pt.Buf), *pt.XorOf, int(pt.Blk-part.Blk)*BlockSize)
			case whole:
				d.store.write(pt.Blk, pt.Buf)
			case pt.XorOf != nil:
				if d.xblk == nil {
					d.xblk = make([]byte, BlockSize)
				}
				for i := 0; i < len(pt.Buf); i += BlockSize {
					xorOf(d.xblk, *pt.XorOf, int(pt.Blk-part.Blk)*BlockSize+i)
					d.apply(pt.Blk+int64(i/BlockSize), d.xblk)
				}
			default:
				d.apply(pt.Blk, pt.Buf)
			}
			if whole {
				d.Cut.Tick(len(pt.Buf) / BlockSize)
			}
			got += len(pt.Buf)
		}
		blk += int64(n / BlockSize)
		d.head = blk
		d.arm.Release(p)
		d.stats.BytesWritten += int64(n)
		left -= n
	}
	d.stats.Writes++
	if d.obs != nil {
		d.obs.Span(d.track, "disk.write", "write", t0,
			obs.Arg{Key: "blk", Val: blk0}, obs.Arg{Key: "bytes", Val: int64(n0)})
		d.wlat.Observe(p.Now() - t0)
	}
	return nil
}
