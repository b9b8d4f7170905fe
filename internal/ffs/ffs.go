// Package ffs implements the comparison baseline of §7: a Fast File
// System-style update-in-place file system with read and write clustering,
// "which coalesces adjacent block I/O operations for better performance".
//
// Layout: a superblock, a block-allocation bitmap, a fixed inode table,
// then data blocks. Each logical file block is assigned a disk location
// upon allocation and every subsequent operation is directed there (§3).
// The allocator prefers runs contiguous with the file's previous block so
// that sequential files can be read and written in 16-block (64 KB)
// clusters, mirroring the paper's FFS configuration ("maximum contiguous
// block count set to 16").
package ffs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dev"
	"repro/internal/sim"
)

// blockSize is the file system block size (4096, as in §7.1).
const blockSize = dev.BlockSize

// maxContig is the clustering limit: 16 blocks = 64 KB transfers.
const maxContig = 16

const (
	ndirect        = 12
	ptrsPerBlock   = blockSize / 4
	inodeSize      = 128
	inodesPerBlock = blockSize / inodeSize
	rootInum       = 1
	nilBlock       = ^uint32(0)
)

// Errors.
var (
	ErrNoSpace  = errors.New("ffs: no space")
	ErrNotFound = errors.New("ffs: no such file or directory")
	ErrExists   = errors.New("ffs: file exists")
	ErrNotDir   = errors.New("ffs: not a directory")
	ErrIsDir    = errors.New("ffs: is a directory")
	ErrNoInodes = errors.New("ffs: out of inodes")
)

// fileType distinguishes files and directories.
type fileType uint8

const (
	typeFree fileType = iota
	typeFile
	typeDir
)

type inode struct {
	inum   uint32
	typ    fileType
	size   uint64
	mtime  int64
	atime  int64
	direct [ndirect]uint32
	single uint32
	double uint32
}

// Options configures the file system.
type Options struct {
	MaxInodes   int // default 4096
	BufferBytes int // default 3.2 MB
	// UserCopyRate models the CPU cost (bytes/second) of copying read
	// data to user space. Zero disables it.
	UserCopyRate int64
}

type bufKey struct {
	inum uint32
	lbn  int32
}

type buf struct {
	key        bufKey
	blk        uint32 // assigned disk block
	data       []byte
	dirty      bool
	prev, next *buf
}

// FS is a mounted FFS.
type FS struct {
	k    *sim.Kernel
	dev  dev.BlockDev
	opts Options
	lock *sim.Resource

	nblocks    int64
	bitmapBase uint32
	bitmapBlks uint32
	itabBase   uint32
	dataBase   uint32

	bitmap []uint64
	rotor  uint32
	nfree  int64

	inodes   map[uint32]*inode
	dirtyIno map[uint32]bool

	bufs             map[bufKey]*buf
	lastLbn          map[uint32]int32 // per-file last-read lbn (sequential detection)
	lruHead, lruTail *buf
	bufBytes         int
}

// Format initializes an empty FFS on device and returns it mounted.
func Format(p *sim.Proc, device dev.BlockDev, opts Options) (*FS, error) {
	if opts.MaxInodes <= 0 {
		opts.MaxInodes = 4096
	}
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = 3200 * 1024
	}
	if min := 4 * maxContig * blockSize; opts.BufferBytes < min {
		opts.BufferBytes = min
	}
	fs := &FS{
		k:        p.Kernel(),
		dev:      device,
		opts:     opts,
		lock:     p.Kernel().NewResource("ffs.lock"),
		nblocks:  device.NumBlocks(),
		inodes:   make(map[uint32]*inode),
		dirtyIno: make(map[uint32]bool),
		bufs:     make(map[bufKey]*buf),
		lastLbn:  make(map[uint32]int32),
	}
	fs.bitmapBase = 1
	bits := uint32(fs.nblocks)
	fs.bitmapBlks = (bits + blockSize*8 - 1) / (blockSize * 8)
	fs.itabBase = fs.bitmapBase + fs.bitmapBlks
	itabBlks := uint32((opts.MaxInodes + inodesPerBlock - 1) / inodesPerBlock)
	fs.dataBase = fs.itabBase + itabBlks
	if int64(fs.dataBase) >= fs.nblocks {
		return nil, fmt.Errorf("ffs: device too small (%d blocks)", fs.nblocks)
	}
	fs.bitmap = make([]uint64, (fs.nblocks+63)/64)
	for b := uint32(0); b < fs.dataBase; b++ {
		fs.setUsed(b)
	}
	fs.nfree = fs.nblocks - int64(fs.dataBase)
	fs.rotor = fs.dataBase
	root := &inode{inum: rootInum, typ: typeDir, mtime: fs.now(), single: nilBlock, double: nilBlock}
	for i := range root.direct {
		root.direct[i] = nilBlock
	}
	fs.inodes[rootInum] = root
	fs.dirtyIno[rootInum] = true
	if err := fs.Sync(p); err != nil {
		return nil, err
	}
	return fs, nil
}

func (fs *FS) now() int64 { return int64(fs.k.Now()) }

// --- allocation ---

func (fs *FS) used(b uint32) bool { return fs.bitmap[b/64]&(1<<(b%64)) != 0 }
func (fs *FS) setUsed(b uint32)   { fs.bitmap[b/64] |= 1 << (b % 64) }

// alloc finds a free block, preferring `hint` (contiguity with the file's
// previous block) and falling back to a rotor scan.
func (fs *FS) alloc(hint uint32) (uint32, error) {
	if fs.nfree == 0 {
		return 0, ErrNoSpace
	}
	if hint != nilBlock && int64(hint) < fs.nblocks && hint >= fs.dataBase && !fs.used(hint) {
		fs.setUsed(hint)
		fs.nfree--
		return hint, nil
	}
	n := uint32(fs.nblocks)
	for i := uint32(0); i < n; i++ {
		b := fs.rotor + i
		if b >= n {
			b = fs.dataBase + (b - n)
		}
		if b < fs.dataBase {
			continue
		}
		if !fs.used(b) {
			fs.setUsed(b)
			fs.nfree--
			fs.rotor = b + 1
			return b, nil
		}
	}
	return 0, ErrNoSpace
}

// --- buffer cache ---

func (fs *FS) lruRemove(b *buf) {
	if b.prev != nil {
		b.prev.next = b.next
	} else if fs.lruHead == b {
		fs.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if fs.lruTail == b {
		fs.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (fs *FS) lruFront(b *buf) {
	if fs.lruHead == b {
		return
	}
	fs.lruRemove(b)
	b.next = fs.lruHead
	if fs.lruHead != nil {
		fs.lruHead.prev = b
	}
	fs.lruHead = b
	if fs.lruTail == nil {
		fs.lruTail = b
	}
}

func (fs *FS) evict(p *sim.Proc) error {
	for fs.bufBytes > fs.opts.BufferBytes {
		v := fs.lruTail
		for v != nil && v.dirty {
			v = v.prev
		}
		if v == nil {
			// Everything dirty: write back before evicting.
			if err := fs.flushLocked(p); err != nil {
				return err
			}
			continue
		}
		fs.dropBuf(v)
	}
	return nil
}

func (fs *FS) dropBuf(b *buf) {
	fs.lruRemove(b)
	delete(fs.bufs, b.key)
	fs.bufBytes -= blockSize
}

func (fs *FS) insertBuf(key bufKey, blk uint32, data []byte, dirty bool) *buf {
	if old, ok := fs.bufs[key]; ok {
		fs.dropBuf(old)
	}
	b := &buf{key: key, blk: blk, data: data, dirty: dirty}
	fs.bufs[key] = b
	fs.bufBytes += blockSize
	fs.lruFront(b)
	return b
}

// flushLocked writes back all dirty buffers, sorted by disk address and
// coalesced into up-to-maxContig-block transfers (write clustering).
func (fs *FS) flushLocked(p *sim.Proc) error {
	var dirty []*buf
	for _, b := range fs.bufs {
		if b.dirty {
			dirty = append(dirty, b)
		}
	}
	sort.Slice(dirty, func(a, b int) bool { return dirty[a].blk < dirty[b].blk })
	for i := 0; i < len(dirty); {
		j := i + 1
		for j < len(dirty) && j-i < maxContig && dirty[j].blk == dirty[j-1].blk+1 {
			j++
		}
		out := make([]byte, (j-i)*blockSize)
		for k := i; k < j; k++ {
			copy(out[(k-i)*blockSize:], dirty[k].data)
		}
		if err := fs.dev.WriteBlocks(p, int64(dirty[i].blk), out); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			dirty[k].dirty = false
		}
		i = j
	}
	return fs.syncMeta(p)
}

// syncMeta writes dirty inodes and the whole bitmap (simplified: the
// bitmap region is small and written sequentially).
func (fs *FS) syncMeta(p *sim.Proc) error {
	if len(fs.dirtyIno) == 0 {
		return nil
	}
	// Group dirty inodes by inode-table block.
	byBlk := map[uint32][]uint32{}
	for inum := range fs.dirtyIno {
		byBlk[inum/inodesPerBlock] = append(byBlk[inum/inodesPerBlock], inum)
	}
	blk := make([]byte, blockSize)
	for tb, inums := range byBlk {
		at := int64(fs.itabBase + tb)
		if err := fs.dev.ReadBlocks(p, at, blk); err != nil {
			return err
		}
		for _, inum := range inums {
			ino := fs.inodes[inum]
			off := int(inum%inodesPerBlock) * inodeSize
			if ino == nil {
				for i := 0; i < inodeSize; i++ {
					blk[off+i] = 0
				}
				continue
			}
			encodeInode(ino, blk[off:])
		}
		if err := fs.dev.WriteBlocks(p, at, blk); err != nil {
			return err
		}
	}
	fs.dirtyIno = make(map[uint32]bool)
	// Bitmap writeback.
	bm := make([]byte, int(fs.bitmapBlks)*blockSize)
	for i, w := range fs.bitmap {
		if (i+1)*8 <= len(bm) {
			binary.LittleEndian.PutUint64(bm[i*8:], w)
		}
	}
	if err := fs.dev.WriteBlocks(p, int64(fs.bitmapBase), bm); err != nil {
		return err
	}
	return nil
}

func encodeInode(ino *inode, b []byte) {
	binary.LittleEndian.PutUint32(b[0:], ino.inum)
	b[4] = byte(ino.typ)
	binary.LittleEndian.PutUint64(b[8:], ino.size)
	binary.LittleEndian.PutUint64(b[16:], uint64(ino.mtime))
	binary.LittleEndian.PutUint64(b[24:], uint64(ino.atime))
	off := 32
	for i := 0; i < ndirect; i++ {
		binary.LittleEndian.PutUint32(b[off:], ino.direct[i])
		off += 4
	}
	binary.LittleEndian.PutUint32(b[off:], ino.single)
	binary.LittleEndian.PutUint32(b[off+4:], ino.double)
}

func decodeInode(b []byte) *inode {
	ino := &inode{}
	ino.inum = binary.LittleEndian.Uint32(b[0:])
	ino.typ = fileType(b[4])
	ino.size = binary.LittleEndian.Uint64(b[8:])
	ino.mtime = int64(binary.LittleEndian.Uint64(b[16:]))
	ino.atime = int64(binary.LittleEndian.Uint64(b[24:]))
	off := 32
	for i := 0; i < ndirect; i++ {
		ino.direct[i] = binary.LittleEndian.Uint32(b[off:])
		off += 4
	}
	ino.single = binary.LittleEndian.Uint32(b[off:])
	ino.double = binary.LittleEndian.Uint32(b[off+4:])
	return ino
}

// iget loads an inode from the table.
func (fs *FS) iget(p *sim.Proc, inum uint32) (*inode, error) {
	if ino, ok := fs.inodes[inum]; ok {
		return ino, nil
	}
	if int(inum) >= fs.opts.MaxInodes {
		return nil, ErrNotFound
	}
	blk := make([]byte, blockSize)
	if err := fs.dev.ReadBlocks(p, int64(fs.itabBase+inum/inodesPerBlock), blk); err != nil {
		return nil, err
	}
	ino := decodeInode(blk[int(inum%inodesPerBlock)*inodeSize:])
	if ino.inum != inum || ino.typ == typeFree {
		return nil, ErrNotFound
	}
	fs.inodes[inum] = ino
	return ino, nil
}

// iallocProbe allocates the first free inode at or after start. FFS
// instances live for one simulation session (no remount support — the
// paper's benchmarks never remount the baseline), so the in-memory table
// is authoritative.
func (fs *FS) iallocProbe(start uint32, typ fileType) (*inode, error) {
	for inum := start; int(inum) < fs.opts.MaxInodes; inum++ {
		if _, loaded := fs.inodes[inum]; loaded {
			continue
		}
		ino := &inode{inum: inum, typ: typ, mtime: fs.now(), atime: fs.now(), single: nilBlock, double: nilBlock}
		for i := range ino.direct {
			ino.direct[i] = nilBlock
		}
		fs.inodes[inum] = ino
		fs.dirtyIno[inum] = true
		return ino, nil
	}
	return nil, ErrNoInodes
}

// --- block mapping ---

// bmap resolves (and with allocate, assigns) the disk block of lbn. FFS
// assigns each logical block a location upon allocation (§3).
func (fs *FS) bmap(p *sim.Proc, ino *inode, lbn int32, allocate bool) (uint32, error) {
	hintFrom := func(prev uint32) uint32 {
		if prev == nilBlock {
			return nilBlock
		}
		return prev + 1
	}
	if lbn < ndirect {
		b := ino.direct[lbn]
		if b == nilBlock && allocate {
			hint := nilBlock
			if lbn > 0 {
				hint = hintFrom(ino.direct[lbn-1])
			}
			nb, err := fs.alloc(hint)
			if err != nil {
				return nilBlock, err
			}
			ino.direct[lbn] = nb
			fs.dirtyIno[ino.inum] = true
			return nb, nil
		}
		return b, nil
	}
	// Indirect chains: load (or allocate) the indirect block(s).
	l := int(lbn) - ndirect
	if l < ptrsPerBlock {
		ib, err := fs.metaBlock(p, ino, &ino.single, -1)
		if err != nil || ib == nil {
			if !allocate || err != nil {
				return nilBlock, err
			}
			nb, err := fs.alloc(nilBlock)
			if err != nil {
				return nilBlock, err
			}
			ino.single = nb
			fs.dirtyIno[ino.inum] = true
			ib = fs.insertBuf(bufKey{ino.inum, -1}, nb, make([]byte, blockSize), true)
		}
		return fs.ptrAt(ib, l, allocate)
	}
	l -= ptrsPerBlock
	child := int32(l / ptrsPerBlock)
	root, err := fs.metaBlock(p, ino, &ino.double, -2)
	if err != nil {
		return nilBlock, err
	}
	if root == nil {
		if !allocate {
			return nilBlock, nil
		}
		nb, err := fs.alloc(nilBlock)
		if err != nil {
			return nilBlock, err
		}
		ino.double = nb
		fs.dirtyIno[ino.inum] = true
		root = fs.insertBuf(bufKey{ino.inum, -2}, nb, make([]byte, blockSize), true)
	}
	childBlk := binary.LittleEndian.Uint32(root.data[child*4:])
	var cb *buf
	if childBlk == 0 || childBlk == nilBlock {
		if !allocate {
			return nilBlock, nil
		}
		nb, err := fs.alloc(nilBlock)
		if err != nil {
			return nilBlock, err
		}
		binary.LittleEndian.PutUint32(root.data[child*4:], nb)
		root.dirty = true
		cb = fs.insertBuf(bufKey{ino.inum, -3 - child}, nb, make([]byte, blockSize), true)
	} else {
		cb, err = fs.metaBlockAt(p, ino, childBlk, -3-child)
		if err != nil {
			return nilBlock, err
		}
	}
	return fs.ptrAt(cb, l%ptrsPerBlock, allocate)
}

// ptrAt reads or allocates the pointer at slot of a meta buffer.
func (fs *FS) ptrAt(b *buf, slot int, allocate bool) (uint32, error) {
	v := binary.LittleEndian.Uint32(b.data[slot*4:])
	if v == 0 {
		v = nilBlock
	}
	if v == nilBlock && allocate {
		hint := nilBlock
		if slot > 0 {
			if prev := binary.LittleEndian.Uint32(b.data[(slot-1)*4:]); prev != 0 && prev != nilBlock {
				hint = prev + 1
			}
		}
		nb, err := fs.alloc(hint)
		if err != nil {
			return nilBlock, err
		}
		binary.LittleEndian.PutUint32(b.data[slot*4:], nb)
		b.dirty = true
		return nb, nil
	}
	return v, nil
}

func (fs *FS) metaBlock(p *sim.Proc, ino *inode, field *uint32, key int32) (*buf, error) {
	if b, ok := fs.bufs[bufKey{ino.inum, key}]; ok {
		fs.lruFront(b)
		return b, nil
	}
	if *field == nilBlock || *field == 0 {
		return nil, nil
	}
	return fs.metaBlockAt(p, ino, *field, key)
}

// bmapCached resolves a data block's disk address using only cached
// metadata; ok is false when an uncached indirect block would be needed.
func (fs *FS) bmapCached(ino *inode, lbn int32) (uint32, bool) {
	if lbn < ndirect {
		return ino.direct[lbn], true
	}
	l := int(lbn) - ndirect
	if l < ptrsPerBlock {
		b, ok := fs.bufs[bufKey{ino.inum, -1}]
		if !ok {
			return nilBlock, false
		}
		v := binary.LittleEndian.Uint32(b.data[l*4:])
		if v == 0 {
			v = nilBlock
		}
		return v, true
	}
	l -= ptrsPerBlock
	child := int32(l / ptrsPerBlock)
	cb, ok := fs.bufs[bufKey{ino.inum, -3 - child}]
	if !ok {
		return nilBlock, false
	}
	v := binary.LittleEndian.Uint32(cb.data[(l%ptrsPerBlock)*4:])
	if v == 0 {
		v = nilBlock
	}
	return v, true
}

func (fs *FS) metaBlockAt(p *sim.Proc, ino *inode, blk uint32, key int32) (*buf, error) {
	if b, ok := fs.bufs[bufKey{ino.inum, key}]; ok {
		fs.lruFront(b)
		return b, nil
	}
	data := make([]byte, blockSize)
	if err := fs.dev.ReadBlocks(p, int64(blk), data); err != nil {
		return nil, err
	}
	return fs.insertBuf(bufKey{ino.inum, key}, blk, data, false), nil
}
