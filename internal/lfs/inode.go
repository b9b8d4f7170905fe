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
func (fs *FS) iget(p *sim.Proc, inum uint32) (*Inode, error) {
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
	if err := fs.readBlocksAt(p, e.Addr, data); err != nil {
		fs.freeBlock(data)
		return nil, err
	}
	ino := &Inode{}
	ino.decode(data[int(e.Slot)*InodeSize:])
	fs.freeBlock(data)
	if ino.Inum != inum {
		return nil, fmt.Errorf("lfs: inode block at %d slot %d holds inum %d, want %d", e.Addr, e.Slot, ino.Inum, inum)
	}
	fs.inodes[inum] = ino
	return ino, nil
}

// markInodeDirty queues the inode for the next segment write.
func (fs *FS) markInodeDirty(ino *Inode) { fs.dirtyIno[ino.Inum] = true }

// iallocLocked allocates a fresh inode of the given type.
func (fs *FS) iallocLocked(typ FileType) (*Inode, error) {
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
	ino := &Inode{
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
func (fs *FS) ifreeLocked(p *sim.Proc, ino *Inode) error {
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
	case lbn >= 0 && lbn < NDirect:
		return lbnInode
	case lbn >= NDirect && int(lbn) < NDirect+PtrsPerBlock:
		return LbnSingle
	case lbn >= 0:
		i := (int(lbn) - NDirect - PtrsPerBlock) / PtrsPerBlock
		return LbnDoubleChild(i)
	case lbn == LbnSingle || lbn == LbnDoubleRoot:
		return lbnInode
	default: // double-indirect child
		return LbnDoubleRoot
	}
}

// slotInParent is the pointer index of lbn within its parent meta block.
func slotInParent(lbn int32) int {
	switch {
	case lbn >= NDirect && int(lbn) < NDirect+PtrsPerBlock:
		return int(lbn) - NDirect
	case lbn >= 0:
		return (int(lbn) - NDirect - PtrsPerBlock) % PtrsPerBlock
	default: // double child i at root slot i
		return int(-lbn - 3)
	}
}

func getPtr(b *buf, slot int) addr.BlockNo {
	return addr.BlockNo(binary.LittleEndian.Uint32(b.data[slot*4:]))
}

func putPtr(b *buf, slot int, a addr.BlockNo) {
	binary.LittleEndian.PutUint32(b.data[slot*4:], uint32(a))
}

// metaAddr reports the current media address of a meta block, without
// loading it. Returns NilBlock when the chain is unallocated.
func (fs *FS) metaAddr(p *sim.Proc, ino *Inode, metaLbn int32) (addr.BlockNo, error) {
	switch metaLbn {
	case LbnSingle:
		return ino.Single, nil
	case LbnDoubleRoot:
		return ino.Double, nil
	}
	// Double child: pointer lives in the root block.
	root, err := fs.getMeta(p, ino, LbnDoubleRoot, false)
	if err != nil {
		return addr.NilBlock, err
	}
	if root == nil {
		return addr.NilBlock, nil
	}
	return getPtr(root, slotInParent(metaLbn)), nil
}

// getMeta returns the buffer of a meta block. With create=false it returns
// (nil, nil) when the block does not exist; with create=true a zero block
// is created (callers dirty it when they store a pointer).
func (fs *FS) getMeta(p *sim.Proc, ino *Inode, metaLbn int32, create bool) (*buf, error) {
	if b := fs.lookupBuf(ino.Inum, metaLbn); b != nil {
		return b, nil
	}
	at, err := fs.metaAddr(p, ino, metaLbn)
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

// blockPtr reports the current media address of data block lbn (NilBlock
// for holes and never-written blocks).
func (fs *FS) blockPtr(p *sim.Proc, ino *Inode, lbn int32) (addr.BlockNo, error) {
	if lbn < 0 || int64(lbn) >= MaxFileBlocks {
		return addr.NilBlock, ErrFileTooBig
	}
	if lbn < NDirect {
		return ino.Direct[lbn], nil
	}
	pl := parentLbn(lbn)
	parent, err := fs.getMeta(p, ino, pl, false)
	if err != nil {
		return addr.NilBlock, err
	}
	if parent == nil {
		return addr.NilBlock, nil
	}
	return getPtr(parent, slotInParent(lbn)), nil
}

// blockPtrCached resolves a data block pointer using only cached metadata
// (no device I/O). ok is false when an uncached indirect block would be
// needed — the read-clustering path stops extending there rather than
// stall the cluster on a metadata fetch. A block in the reserve counts as
// uncached, so that a cluster's length never depends on what the reserve
// happens to hold.
func (fs *FS) blockPtrCached(ino *Inode, lbn int32) (addr.BlockNo, bool) {
	if lbn < 0 || int64(lbn) >= MaxFileBlocks {
		return addr.NilBlock, false
	}
	if lbn < NDirect {
		return ino.Direct[lbn], true
	}
	parent, ok := fs.bufs[bufKey{ino.Inum, parentLbn(lbn)}]
	if !ok || parent.on == &fs.reserve {
		return addr.NilBlock, false
	}
	return getPtr(parent, slotInParent(lbn)), true
}

// setBlockPtr updates the pointer to data block lbn, creating the meta
// chain on demand, and returns the previous address.
func (fs *FS) setBlockPtr(p *sim.Proc, ino *Inode, lbn int32, a addr.BlockNo) (addr.BlockNo, error) {
	if lbn < 0 || int64(lbn) >= MaxFileBlocks {
		return addr.NilBlock, ErrFileTooBig
	}
	if lbn < NDirect {
		old := ino.Direct[lbn]
		ino.Direct[lbn] = a
		fs.markInodeDirty(ino)
		return old, nil
	}
	parent, err := fs.getMeta(p, ino, parentLbn(lbn), true)
	if err != nil {
		return addr.NilBlock, err
	}
	slot := slotInParent(lbn)
	old := getPtr(parent, slot)
	putPtr(parent, slot, a)
	fs.markDirty(parent)
	return old, nil
}

// setParentPtr records a meta or data block's new address in its parent.
// The parent must already be dirty (the segment writer guarantees this via
// its pre-pass), except when the parent is the inode itself.
func (fs *FS) setParentPtr(ino *Inode, lbn int32, a addr.BlockNo) {
	pl := parentLbn(lbn)
	if pl == lbnInode {
		switch {
		case lbn >= 0:
			ino.Direct[lbn] = a
		case lbn == LbnSingle:
			ino.Single = a
		case lbn == LbnDoubleRoot:
			ino.Double = a
		}
		fs.markInodeDirty(ino)
		return
	}
	parent := fs.bufs[bufKey{ino.Inum, pl}]
	if parent == nil || !parent.dirty {
		state := "missing"
		if parent != nil {
			state = fmt.Sprintf("present dirty=%v addr=%d", parent.dirty, parent.addr)
		}
		panic(fmt.Sprintf("lfs: parent %d of block (%d,%d) not dirty at relocation: %s", pl, ino.Inum, lbn, state))
	}
	putPtr(parent, slotInParent(lbn), a)
}

// truncateLocked frees blocks beyond size (in bytes) and sets the file
// size. It handles data blocks and any meta blocks that become empty.
func (fs *FS) truncateLocked(p *sim.Proc, ino *Inode, size uint64) error {
	oldBlocks := int32(blocksFor(int(ino.Size)))
	newBlocks := int32(blocksFor(int(size)))
	for lbn := newBlocks; lbn < oldBlocks; lbn++ {
		old, err := fs.blockPtr(p, ino, lbn)
		if err != nil {
			return err
		}
		if old != addr.NilBlock {
			fs.accountOld(old, BlockSize)
			if _, err := fs.setBlockPtr(p, ino, lbn, addr.NilBlock); err != nil {
				return err
			}
		}
		if b, ok := fs.bufs[bufKey{ino.Inum, lbn}]; ok {
			if b.dirty {
				b.dirty = false
				fs.dirtyBytes -= BlockSize
			}
			fs.dropBuf(b)
		}
	}
	// Free meta blocks that no longer cover any data block.
	if newBlocks <= NDirect {
		fs.freeMeta(p, ino, LbnSingle)
	}
	firstDouble := int32(NDirect + PtrsPerBlock)
	if newBlocks <= firstDouble {
		// All double children and the root go.
		maxChild := (int(oldBlocks) - NDirect - PtrsPerBlock + PtrsPerBlock - 1) / PtrsPerBlock
		for i := 0; i < maxChild; i++ {
			fs.freeMeta(p, ino, LbnDoubleChild(i))
		}
		fs.freeMeta(p, ino, LbnDoubleRoot)
	} else {
		liveChildren := (int(newBlocks) - NDirect - PtrsPerBlock + PtrsPerBlock - 1) / PtrsPerBlock
		maxChild := (int(oldBlocks) - NDirect - PtrsPerBlock + PtrsPerBlock - 1) / PtrsPerBlock
		for i := liveChildren; i < maxChild; i++ {
			fs.freeMeta(p, ino, LbnDoubleChild(i))
		}
	}
	ino.Size = size
	ino.Mtime = fs.now()
	fs.markInodeDirty(ino)
	return nil
}

// freeMeta releases one meta block if present.
func (fs *FS) freeMeta(p *sim.Proc, ino *Inode, metaLbn int32) {
	at, err := fs.metaAddr(p, ino, metaLbn)
	if err != nil {
		return
	}
	if at != addr.NilBlock {
		fs.accountOld(at, BlockSize)
	}
	if b, ok := fs.bufs[bufKey{ino.Inum, metaLbn}]; ok {
		if b.dirty {
			b.dirty = false
			fs.dirtyBytes -= BlockSize
		}
		fs.dropBuf(b)
	}
	// Clear the parent pointer.
	switch metaLbn {
	case LbnSingle:
		if ino.Single != addr.NilBlock {
			ino.Single = addr.NilBlock
			fs.markInodeDirty(ino)
		}
	case LbnDoubleRoot:
		if ino.Double != addr.NilBlock {
			ino.Double = addr.NilBlock
			fs.markInodeDirty(ino)
		}
	default:
		if root, _ := fs.getMeta(p, ino, LbnDoubleRoot, false); root != nil {
			slot := slotInParent(metaLbn)
			if getPtr(root, slot) != addr.NilBlock {
				putPtr(root, slot, addr.NilBlock)
				fs.markDirty(root)
			}
		}
	}
}
