package lfs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addr"
	"repro/internal/sim"
)

// lbnInode is the sentinel "parent" of blocks whose pointer lives directly
// in the inode.
const lbnInode int32 = -1 << 30

// iget returns the in-memory inode, loading it from the log if needed.
// Loading may touch tertiary storage when the inode itself has migrated.
func (fs *FS) iget(p *sim.Proc, inum uint32) (*dinode, error) {
	if ino, ok := fs.inodes[inum]; ok {
		return ino, nil
	}
	if int(inum) >= len(fs.imap) {
		return nil, fmt.Errorf("lfs: inode %d out of range", inum)
	}
	e := fs.imap[inum]
	if e.Addr == addr.NilBlock {
		return nil, fmt.Errorf("lfs: inode %d is free: %w", inum, ErrNotFound)
	}
	// The inode block is only decoded, not cached: borrow a block for it.
	data := fs.newBlock()
	if err := fs.readBlock(p, e.Addr, data); err != nil {
		fs.freeBlock(data)
		return nil, err
	}
	ino, err := inodeAt(data, e, inum)
	fs.freeBlock(data)
	if err != nil {
		return nil, err
	}
	fs.inodes[inum] = ino
	return ino, nil
}

// markInodeDirty queues the inode for the next segment write.
func (fs *FS) markInodeDirty(ino *dinode) { fs.dirtyIno[ino.Inum] = true }

// iallocLocked allocates a fresh inode of the given type.
func (fs *FS) iallocLocked(typ FileType) (*dinode, error) {
	var inum uint32
	if n := len(fs.freeInums); n > 0 {
		inum = fs.freeInums[n-1]
		fs.freeInums = fs.freeInums[:n-1]
	} else if int(fs.nextInum) < len(fs.imap) {
		inum = fs.nextInum
		fs.nextInum++
	} else {
		return nil, ErrNoInodes
	}
	e := &fs.imap[inum]
	e.Version++
	e.Atime = fs.now()
	now := fs.now()
	ino := &dinode{
		Inum:    inum,
		Version: e.Version,
		Type:    typ,
		Nlink:   1,
		Mtime:   now,
		Ctime:   now,
		Single:  addr.NilBlock,
		Double:  addr.NilBlock,
	}
	for i := range ino.Direct {
		ino.Direct[i] = addr.NilBlock
	}
	fs.inodes[inum] = ino
	fs.markInodeDirty(ino)
	return ino, nil
}

// ifreeLocked releases an inode and all its blocks.
func (fs *FS) ifreeLocked(p *sim.Proc, ino *dinode) error {
	if err := fs.truncateLocked(p, ino, 0); err != nil {
		return err
	}
	e := &fs.imap[ino.Inum]
	if e.Addr != addr.NilBlock {
		fs.accountOld(e.Addr, InodeSize)
	}
	e.Addr = addr.NilBlock
	e.Version++
	delete(fs.inodes, ino.Inum)
	delete(fs.dirtyIno, ino.Inum)
	fs.freeInums = append(fs.freeInums, ino.Inum)
	return nil
}

// accounting: live-byte bookkeeping in the segment usage tables.

func (fs *FS) accountOld(a addr.BlockNo, n uint32) {
	if a == addr.NilBlock {
		return
	}
	fs.countLive(a, -1)
	if su := fs.seguseFor(a); su != nil {
		if su.LiveBytes >= n {
			su.LiveBytes -= n
		} else {
			su.LiveBytes = 0
		}
	}
}

func (fs *FS) accountNew(a addr.BlockNo, n uint32) {
	if a == addr.NilBlock {
		return
	}
	fs.countLive(a, 1)
	if su := fs.seguseFor(a); su != nil {
		su.LiveBytes += n
		su.LastMod = fs.now()
	}
}

// seguseFor resolves a block address to its usage entry (disk segment
// table or tertiary segment table).
func (fs *FS) seguseFor(a addr.BlockNo) *Seguse {
	seg := fs.amap.SegOf(a)
	if fs.amap.IsDiskSeg(seg) {
		return &fs.seguse[seg]
	}
	if idx, ok := fs.amap.TertIndex(seg); ok {
		return &fs.tseg[idx]
	}
	return nil
}

// Meta-block geometry helpers.

// parentLbn names the block holding the pointer to lbn: a meta lbn or
// lbnInode when the pointer lives in the inode itself.
func parentLbn(lbn int32) int32 {
	switch {
	case lbn >= 0 && lbn < nDirect:
		return lbnInode
	case lbn >= nDirect && int(lbn) < nDirect+ptrsPerBlock:
		return LbnSingle
	case lbn >= 0:
		i := (int(lbn) - nDirect - ptrsPerBlock) / ptrsPerBlock
		return lbnDoubleChild(i)
	case lbn == LbnSingle || lbn == lbnDoubleRoot:
		return lbnInode
	default: // double-indirect child
		return lbnDoubleRoot
	}
}

// slotInParent is the pointer index of lbn within its parent meta block.
func slotInParent(lbn int32) int {
	switch {
	case lbn >= nDirect && int(lbn) < nDirect+ptrsPerBlock:
		return int(lbn) - nDirect
	case lbn >= 0:
		return (int(lbn) - nDirect - ptrsPerBlock) % ptrsPerBlock
	default: // double child i at root slot i
		return int(-lbn - 3)
	}
}

// doubleChildren is how many double-indirect children a file of nblocks
// blocks has.
func doubleChildren(nblocks int) int {
	return (nblocks - nDirect - ptrsPerBlock + ptrsPerBlock - 1) / ptrsPerBlock
}

// The block-pointer map. The pointer to block lbn of a file (data, or an
// indirect block: lbn < 0) is a field of the inode or a slot in the parent
// meta block parentLbn(lbn); a ptrRef is that place. It is found one of two
// ways: ptrTo reaches the parent through lookupBuf (a counted lookup that
// moves the LRU order and may read the parent, or create it), cachedPtrTo
// through fs.bufs alone (no I/O, uncounted: read-ahead and the segment
// writer's relocation). Every pointer read and store goes through a ptrRef.
type ptrRef struct {
	ino    *dinode
	field  *addr.BlockNo // Direct[lbn], Single or Double; nil for a slot
	parent *buf          // the meta block holding the slot; nil if absent
	slot   int
}

// get reads the pointer; NilBlock when the parent meta block is absent or the
// slot was never assigned (zero: block 0 is the superblock, never a file's).
func (r ptrRef) get() addr.BlockNo {
	switch {
	case r.field != nil:
		return *r.field
	case r.parent != nil && binary.LittleEndian.Uint32(r.parent.data[r.slot*4:]) != 0:
		return addr.BlockNo(binary.LittleEndian.Uint32(r.parent.data[r.slot*4:]))
	}
	return addr.NilBlock
}

// setPtr stores a and dirties whatever holds the pointer.
func (fs *FS) setPtr(r ptrRef, a addr.BlockNo) {
	if r.field != nil {
		*r.field = a
		fs.markInodeDirty(r.ino)
		return
	}
	binary.LittleEndian.PutUint32(r.parent.data[r.slot*4:], uint32(a))
	fs.markDirty(r.parent)
}

// ptrTo finds the pointer to lbn through lookupBuf; with create a missing
// parent meta block is made (a dirty zero block).
func (fs *FS) ptrTo(p *sim.Proc, ino *dinode, lbn int32, create bool) (ptrRef, error) {
	if lbn < lbnDoubleChild(ptrsPerBlock-1) || int64(lbn) >= maxFileBlocks {
		return ptrRef{}, ErrFileTooBig
	}
	if pl := parentLbn(lbn); pl != lbnInode {
		parent, err := fs.getMeta(p, ino, pl, create)
		return ptrRef{parent: parent, slot: slotInParent(lbn)}, err
	}
	return inodePtr(ino, lbn), nil
}

// cachedPtrTo finds the pointer to lbn through fs.bufs only: no device I/O,
// no counted lookup. The parent is nil when it is not cached.
func (fs *FS) cachedPtrTo(ino *dinode, lbn int32) ptrRef {
	if pl := parentLbn(lbn); pl != lbnInode {
		return ptrRef{parent: fs.bufs[bufKey{ino.Inum, pl}], slot: slotInParent(lbn)}
	}
	return inodePtr(ino, lbn)
}

// inodePtr is the pointer to a block whose parent is the inode itself.
func inodePtr(ino *dinode, lbn int32) ptrRef {
	r := ptrRef{ino: ino, field: &ino.Single}
	switch {
	case lbn >= 0:
		r.field = &ino.Direct[lbn]
	case lbn == lbnDoubleRoot:
		r.field = &ino.Double
	}
	return r
}

// getMeta returns the buffer of a meta block. With create=false it returns
// (nil, nil) when the block does not exist; with create=true a zero block
// is created (callers dirty it when they store a pointer).
func (fs *FS) getMeta(p *sim.Proc, ino *dinode, metaLbn int32, create bool) (*buf, error) {
	if b := fs.lookupBuf(ino.Inum, metaLbn); b != nil {
		return b, nil
	}
	at, err := fs.blockPtr(p, ino, metaLbn)
	if err != nil {
		return nil, err
	}
	if at == addr.NilBlock {
		if !create {
			return nil, nil
		}
		// A freshly created meta block is born dirty: every creator is
		// about to store a pointer into it, and a clean zero block must
		// never be evicted before that happens.
		b := fs.insertBuf(ino.Inum, metaLbn, fs.newZeroBlock(), addr.NilBlock, true)
		return b, nil
	}
	return fs.getBlock(p, ino.Inum, metaLbn, at)
}

// blockPtr reports the current media address of block lbn, data or meta
// (NilBlock for holes and never-written blocks).
func (fs *FS) blockPtr(p *sim.Proc, ino *dinode, lbn int32) (addr.BlockNo, error) {
	r, err := fs.ptrTo(p, ino, lbn, false)
	return r.get(), err
}

// blockPtrCached resolves a data block pointer using only cached metadata
// (no device I/O). ok is false when an uncached indirect block would be
// needed — the read-clustering path stops extending there rather than
// stall the cluster on a metadata fetch. A block in the reserve counts as
// uncached, so that a cluster's length never depends on what the reserve
// happens to hold.
func (fs *FS) blockPtrCached(ino *dinode, lbn int32) (addr.BlockNo, bool) {
	r := fs.cachedPtrTo(ino, lbn)
	if r.field == nil && (r.parent == nil || r.parent.on == &fs.reserve) {
		return addr.NilBlock, false
	}
	return r.get(), true
}

// setBlockPtr updates the pointer to block lbn, data or meta, creating the
// meta chain on demand.
func (fs *FS) setBlockPtr(p *sim.Proc, ino *dinode, lbn int32, a addr.BlockNo) error {
	r, err := fs.ptrTo(p, ino, lbn, true)
	if err == nil {
		fs.setPtr(r, a)
	}
	return err
}

// setParentPtr records a meta or data block's new address in its parent.
// The parent must already be dirty (the segment writer guarantees this via
// its pre-pass), except when the parent is the inode itself.
func (fs *FS) setParentPtr(ino *dinode, lbn int32, a addr.BlockNo) {
	r := fs.cachedPtrTo(ino, lbn)
	if r.field == nil && (r.parent == nil || !r.parent.dirty) {
		panic(fmt.Sprintf("lfs: parent %d of block (%d,%d) not dirty at relocation", parentLbn(lbn), ino.Inum, lbn))
	}
	fs.setPtr(r, a)
}

// truncateLocked frees blocks beyond size (in bytes) and sets the file
// size. It handles data blocks and any meta blocks that become empty.
func (fs *FS) truncateLocked(p *sim.Proc, ino *dinode, size uint64) error {
	oldBlocks := blocksFor(int(ino.Size))
	newBlocks := blocksFor(int(size))
	if cut := int(size % BlockSize); cut != 0 && size < ino.Size {
		// The block the new size cuts keeps nothing past it: a later
		// extension reads zeroes there.
		lbn := int32(size / BlockSize)
		a, err := fs.blockPtr(p, ino, lbn)
		if err != nil {
			return err
		}
		b, err := fs.getBlock(p, ino.Inum, lbn, a)
		if err != nil {
			return err
		}
		fs.writable(b, false)
		clear(b.data[cut:])
		fs.markDirty(b)
	}
	for lbn := int32(newBlocks); lbn < int32(oldBlocks); lbn++ {
		old, err := fs.blockPtr(p, ino, lbn)
		if err != nil {
			return err
		}
		if old != addr.NilBlock {
			fs.accountOld(old, BlockSize)
			if err := fs.setBlockPtr(p, ino, lbn, addr.NilBlock); err != nil {
				return err
			}
		}
		if b, ok := fs.bufs[bufKey{ino.Inum, lbn}]; ok {
			fs.dropBuf(b)
		}
	}
	// Free meta blocks that no longer cover any data block.
	if newBlocks <= nDirect {
		fs.freeMeta(p, ino, LbnSingle)
	}
	for i := doubleChildren(newBlocks); i < doubleChildren(oldBlocks); i++ {
		fs.freeMeta(p, ino, lbnDoubleChild(i))
	}
	if newBlocks <= nDirect+ptrsPerBlock {
		fs.freeMeta(p, ino, lbnDoubleRoot)
	}
	ino.Size = size
	ino.Mtime = fs.now()
	fs.markInodeDirty(ino)
	return nil
}

// freeMeta releases one meta block if present.
func (fs *FS) freeMeta(p *sim.Proc, ino *dinode, metaLbn int32) {
	at, err := fs.blockPtr(p, ino, metaLbn)
	if err != nil {
		return
	}
	fs.accountOld(at, BlockSize)
	if b, ok := fs.bufs[bufKey{ino.Inum, metaLbn}]; ok {
		fs.dropBuf(b)
	}
	// Clear the parent pointer. Looking the parent up again is a counted
	// lookup of its own, which the benchmark's exact lfs.buf_hit_rate pins.
	if r, _ := fs.ptrTo(p, ino, metaLbn, false); r.get() != addr.NilBlock {
		fs.setPtr(r, addr.NilBlock)
	}
}
