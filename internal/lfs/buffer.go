package lfs

import (
	"cmp"
	"slices"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// The buffer cache holds file blocks keyed by (inode, logical block
// number); negative lbns name a file's indirect blocks. Keying by identity
// rather than device address is essential in a log-structured file system:
// a dirty block has no address yet (it gets one when its partial segment is
// assembled), and relocation by the cleaner changes addresses without
// changing identity.

type bufKey struct {
	inum uint32
	lbn  int32
}

type buf struct {
	key   bufKey
	data  []byte
	dirty bool
	// lent marks data as a view the device lent (fillBlocks): bytes the
	// cache does not own and that never change. It is never written (see
	// writable) and never goes to the free list.
	lent bool
	// addr is the media address the block was read from or last written
	// to; NilBlock for newly created blocks.
	addr addr.BlockNo

	on         *lruList // the list holding the buffer
	prev, next *buf
}

// The cache keeps two LRU lists inside the one BufferBytes budget
// (DESIGN.md, "Buffer cache"): fs.lru, which every insert and every demand
// lookup feeds, and fs.reserve, the pointer-block reserve, where eviction
// parks indirect blocks that map migrated data instead of dropping them.
// Invariants:
//   - a buffer in fs.bufs is on exactly one list (b.on), and fs.bufBytes
//     counts both lists;
//   - the reserve holds only clean buffers with lbn < 0 and a tertiary
//     address, at most 1/reserveShare of the budget;
//   - markDirty is the one place a buffer becomes dirty, and it takes a
//     reserve buffer back to fs.lru first: code that reaches buffers through
//     fs.bufs (cleaner, Migratev, setParentPtr) needs no other care;
//   - fs.dirty holds exactly the dirty buffers: markDirty adds and
//     markClean (which dropBuf calls) removes, so a flush walks it, not
//     fs.bufs;
//   - only lookupBuf, a demand lookup, counts a reserve hit; read-ahead
//     (blockPtrCached) does not see the reserve.

// reserveShare is the reserve's bound as a fraction of BufferBytes.
const reserveShare = 8

// lruList is one LRU list of buffers; head = most recently used.
type lruList struct {
	head, tail *buf
	n          int
}

func (l *lruList) remove(b *buf) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next, b.on = nil, nil, nil
	l.n--
}

func (l *lruList) pushFront(b *buf) {
	b.next, b.on = l.head, l
	if l.head != nil {
		l.head.prev = b
	} else {
		l.tail = b
	}
	l.head = b
	l.n++
}

// lruFront moves b, new or on either list, to the most-recently-used
// position of the main list.
func (fs *FS) lruFront(b *buf) {
	if fs.lru.head == b {
		return
	}
	if b.on != nil {
		b.on.remove(b)
	}
	fs.lru.pushFront(b)
}

// evictLocked discards clean buffers from the LRU tail until the cache
// fits its memory budget. Dirty buffers are pinned, and so is the MRU
// head: it is the buffer a caller just inserted and may still be about to
// mutate — evicting it would orphan the caller's pointer and lose the
// update. A victim that is a pointer block of migrated data moves to the
// reserve, whose own overflow or a main list without a clean victim drops
// the reserve's oldest: no victim costs a walk over the reserve.
func (fs *FS) evictLocked() {
	for fs.bufBytes > fs.opts.BufferBytes {
		v := fs.lru.tail
		for v != nil && (v.dirty || v == fs.lru.head) {
			v = v.prev
		}
		switch {
		case v == nil && fs.reserve.tail == nil:
			return // everything dirty; flush will drain
		case v == nil:
			fs.dropBuf(fs.reserve.tail)
		case v.key.lbn < 0 && fs.amap.IsTertiarySeg(fs.amap.SegOf(v.addr)):
			fs.lru.remove(v)
			fs.reserve.pushFront(v)
			if fs.reserve.n*BlockSize > fs.opts.BufferBytes/reserveShare {
				fs.dropBuf(fs.reserve.tail)
			}
		default:
			fs.dropBuf(v)
		}
	}
}

// dropBuf removes b, dirty or not, from the cache and takes its block back
// into the free list, unless the block is lent. b is dead afterwards: its
// data is gone, so a holder that kept the pointer across an insertBuf (which
// may evict) faults instead of reading another block's bytes. The header
// waits in fs.droppedBufs until the operation releases the lock (unlock), so
// it stays dead for the rest of the operation that dropped it.
func (fs *FS) dropBuf(b *buf) {
	fs.markClean(b)
	b.on.remove(b)
	delete(fs.bufs, b.key)
	fs.bufBytes -= BlockSize
	if !b.lent {
		fs.freeBlock(b.data)
	}
	if poisonFreed { // 0xDB bytes, as freeBlock's
		*b = buf{key: bufKey{0xDBDBDBDB, -0x24242425}, addr: 0xDBDBDBDB}
	}
	b.data = nil
	fs.droppedBufs = append(fs.droppedBufs, b)
}

// unlock releases the lock at the end of an operation, or of one attempt of
// readOnly's. No *buf is held across a release, so the headers dropped while
// the lock was held become insertBuf's to reuse.
func (fs *FS) unlock(p *sim.Proc) {
	fs.freeBufs = append(fs.freeBufs, fs.droppedBufs...)
	fs.droppedBufs = fs.droppedBufs[:0]
	fs.lock.Release(p)
}

// writable makes b's bytes the cache's own before a write into them: a lent
// buffer gets a block of its own, holding a copy of the view unless the
// caller is about to overwrite every byte (whole). Every write into a data
// buffer comes through here first (writeAtLocked, truncateLocked); metadata
// buffers are never lent.
func (fs *FS) writable(b *buf, whole bool) {
	if !b.lent {
		return
	}
	data := fs.newBlock()
	if !whole {
		copy(data, b.data)
	}
	b.data, b.lent = data, false
}

// poisonFreed makes freeBlock overwrite every returned block with 0xDB, so
// a slice used after its release corrupts data deterministically. Only
// test files set it.
var poisonFreed bool

// newBlock returns a BlockSize buffer with arbitrary contents, recycled
// from the blocks dropBuf took back when there is one. Like every user of
// the free list it runs under fs.lock (no block is held while readOnly has
// given the lock up); reuse therefore depends only on the operation sequence.
func (fs *FS) newBlock() []byte {
	if n := len(fs.freeBlocks); n > 0 {
		b := fs.freeBlocks[n-1]
		fs.freeBlocks = fs.freeBlocks[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

// newZeroBlock is newBlock for callers whose contract is a zero block: a
// hole, or a block that is about to be partly written.
func (fs *FS) newZeroBlock() []byte {
	b := fs.newBlock()
	clear(b)
	return b
}

// freeBlock returns a block obtained from newBlock that nothing refers to
// any more.
func (fs *FS) freeBlock(b []byte) {
	if poisonFreed {
		for i := range b {
			b[i] = 0xDB
		}
	}
	fs.freeBlocks = append(fs.freeBlocks, b)
}

// lookupBuf finds a cached block without touching the device; a block found
// in the reserve is back on the main list afterwards.
func (fs *FS) lookupBuf(inum uint32, lbn int32) *buf {
	b, ok := fs.bufs[bufKey{inum, lbn}]
	reserved := ok && b.on == &fs.reserve
	if ok {
		fs.lruFront(b)
	}
	if fs.op.fault.n > 0 {
		return b // an earlier attempt of the operation counted this lookup (readOp)
	}
	if reserved {
		fs.stats.ReserveHits++
	}
	if ok {
		fs.stats.CacheHits++
	} else {
		fs.stats.CacheMisses++
	}
	return b
}

// insertBuf adds a block to the cache. data must come from newBlock (or
// newZeroBlock) and is owned by the cache afterwards; dropBuf recycles it.
// The header is one an earlier operation dropped, when there is one.
func (fs *FS) insertBuf(inum uint32, lbn int32, data []byte, at addr.BlockNo, dirty bool) *buf {
	key := bufKey{inum, lbn}
	if old, ok := fs.bufs[key]; ok {
		fs.dropBuf(old)
	}
	var b *buf
	if n := len(fs.freeBufs); n > 0 {
		b, fs.freeBufs = fs.freeBufs[n-1], fs.freeBufs[:n-1]
	} else {
		b = new(buf)
	}
	*b = buf{key: key, data: data, addr: at}
	fs.bufs[key] = b
	fs.bufBytes += BlockSize
	fs.lruFront(b)
	if dirty {
		fs.markDirty(b)
	}
	fs.evictLocked()
	return b
}

// markDirty flags a buffer for the next segment write.
func (fs *FS) markDirty(b *buf) {
	if b.on == &fs.reserve {
		fs.lruFront(b)
	}
	if !b.dirty {
		b.dirty = true
		fs.dirty[b.key] = b
	}
}

// markClean takes b out of the dirty set: it was written, or is dropped.
func (fs *FS) markClean(b *buf) {
	if b.dirty {
		b.dirty = false
		delete(fs.dirty, b.key)
	}
}

// readAt performs a timed device read into parts, each starting at the
// block after the one before ends: an inode or indirect block (readBlock),
// or fillBlocks' cluster. Every device read of the read path comes through
// here, the one place a restartable operation (readOnly) declines to wait for
// tertiary storage.
func (fs *FS) readAt(p *sim.Proc, parts []dev.Part) error {
	op, at, n, read := &fs.op, addr.BlockNo(parts[0].Blk), 0, fs.dev.ReadParts
	for _, pt := range parts {
		n += len(pt.Buf) / BlockSize
	}
	if op.fault.n > 0 && op.fault.at == at {
		// The read an earlier attempt unwound at, accounted for by Fetch
		// (its length may differ: read-ahead stops at a buffered block).
		op.fault, read = notResident{}, fs.fetcher.ReadAgain
	}
	if op.restartable && fs.fetcher.WouldWait(at, n) {
		return notResident{at, n}
	}
	if err := read(p, parts); err != nil {
		return err
	}
	fs.stats.DevReads++
	fs.stats.BytesRead += int64(n) * BlockSize
	return nil
}

// readBlock is readAt of one block into data, which the device fills.
func (fs *FS) readBlock(p *sim.Proc, at addr.BlockNo, data []byte) error {
	one := &fs.fill.parts[0]
	*one = dev.Part{Blk: int64(at), Buf: data}
	err := fs.readAt(p, fs.fill.parts[:1])
	*one = dev.Part{}
	return err
}

// getBlock returns the buffer for (inum, lbn), reading it from the device
// at address at when not cached. If at is NilBlock a zero block is
// created (not yet dirty — callers mark it).
func (fs *FS) getBlock(p *sim.Proc, inum uint32, lbn int32, at addr.BlockNo) (*buf, error) {
	if b := fs.lookupBuf(inum, lbn); b != nil {
		return b, nil
	}
	if at == addr.NilBlock {
		return fs.insertBuf(inum, lbn, fs.newZeroBlock(), at, false), nil
	}
	if lbn < 0 && fs.fetcher != nil && fs.fetcher.WouldWait(at, 1) {
		fs.stats.PointerWaits++ // the read below waits, or unwinds so that readOnly does
	}
	data := fs.newBlock()
	if err := fs.readBlock(p, at, data); err != nil {
		fs.freeBlock(data)
		return nil, err
	}
	return fs.insertBuf(inum, lbn, data, at, false), nil
}

// dirtyList returns the dirty buffers partitioned into data (lbn >= 0) and
// meta (lbn < 0) sets, each sorted for deterministic layout. The slices are
// the flush scratch's and valid until the next call.
func (fs *FS) dirtyList() (data, meta []*buf) {
	data, meta = fs.flush.data[:0], fs.flush.meta[:0]
	for _, b := range fs.dirty {
		if b.key.lbn >= 0 {
			data = append(data, b)
		} else {
			meta = append(meta, b)
		}
	}
	sortBufs(data)
	sortBufs(meta)
	fs.flush.data, fs.flush.meta = data, meta
	return data, meta
}

// sortBufs orders buffers by inum, then lbn ascending (meta lbns are
// negative; more deeply nested blocks have lower lbns and sort first, which
// is harmless since addresses are pre-assigned).
func sortBufs(bs []*buf) {
	slices.SortFunc(bs, func(a, b *buf) int { return cmpKey(a.key, b.key) })
}

func cmpKey(a, b bufKey) int {
	if c := cmp.Compare(a.inum, b.inum); c != 0 {
		return c
	}
	return cmp.Compare(a.lbn, b.lbn)
}
