package lfs

import (
	"io"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// readCluster is the maximum blocks coalesced into one device read (the
// paper's FFS/LFS read-clustering of 16 contiguous 4 KB blocks = 64 KB).
const readCluster = 16

// File is an open file handle.
type File struct {
	fs   *FS
	inum uint32
}

// FileInfo describes a file for Stat and ReadDir callers.
type FileInfo struct {
	Inum  uint32
	Type  FileType
	Size  uint64
	Mtime int64
	Atime int64
}

// Inum reports the file's inode number.
func (f *File) Inum() uint32 { return f.inum }

// Size reports the current file size in bytes.
func (f *File) Size(p *sim.Proc) (size uint64, err error) {
	err = f.fs.readOnly(p, func() error {
		ino, err := f.fs.iget(p, f.inum)
		if err != nil {
			return err
		}
		size = ino.Size
		return nil
	})
	return size, err
}

// ReadAt reads len(b) bytes at offset off, returning io.EOF at end of
// file. Reads of tertiary-resident blocks block while their segment is
// demand-fetched into the cache; only this caller waits (readOnly).
func (f *File) ReadAt(p *sim.Proc, b []byte, off int64) (n int, err error) {
	err = f.fs.readOnly(p, func() (err error) {
		n, err = f.fs.readAtLocked(p, f.inum, b, off)
		return err
	})
	return n, err
}

func (fs *FS) readAtLocked(p *sim.Proc, inum uint32, b []byte, off int64) (int, error) {
	ino, err := fs.iget(p, inum)
	if err != nil {
		return 0, err
	}
	if off < 0 || uint64(off) >= ino.Size {
		return 0, io.EOF
	}
	n := len(b)
	eof := false
	if uint64(off)+uint64(n) > ino.Size {
		n = int(ino.Size - uint64(off))
		eof = true
	}
	if ino.Type != TypeDir && !fs.op.accessed {
		// BSD file systems do not update directory access times on
		// normal directory accesses (§5.3), which lets the migrator
		// walk the tree without perturbing its own policy inputs.
		fs.op.accessed = true
		fs.imap[inum].Atime = fs.now()
		if fs.OnAccess != nil {
			fs.OnAccess(inum, int32(off/BlockSize), int32((off+int64(n)-1)/BlockSize)+1, false)
		}
	}
	firstLbn := int32(off / BlockSize)
	reqEnd := int32((off+int64(n)-1)/BlockSize) + 1
	// Sequential detection, as in the BSD cluster-read code: read-ahead
	// beyond the requested range only when this request continues where
	// the previous one on this file left off (or starts the file).
	last, okLast := fs.lastLbn[inum]
	seq := firstLbn == 0 || (okLast && last == firstLbn-1)
	read := 0
	for read < n {
		lbn := int32((off + int64(read)) / BlockSize)
		blkOff := int((off + int64(read)) % BlockSize)
		want := BlockSize - blkOff
		if want > n-read {
			want = n - read
		}
		bf := fs.lookupBuf(inum, lbn)
		if bf == nil {
			if err := fs.fillBlocks(p, ino, lbn, reqEnd, seq); err != nil {
				return read, err
			}
			bf = fs.lookupBuf(inum, lbn)
			if bf == nil {
				panic("lfs: fillBlocks did not populate requested block")
			}
		}
		copy(b[read:read+want], bf.data[blkOff:blkOff+want])
		read += want
	}
	fs.lastLbn[inum] = reqEnd - 1
	if fs.op.reads++; fs.op.reads > fs.op.charged {
		fs.op.charged = fs.op.reads
		fs.chargeCopy(p, read, fs.opts.UserCopyRate)
	}
	if eof {
		return read, io.EOF
	}
	return read, nil
}

// fillBlocks reads block lbn into the cache, clustering up to readCluster
// blocks whose media addresses are contiguous (read clustering, §7).
// Extension covers the remaining requested range, plus read-ahead to a
// full cluster on sequentially accessed files; it consults only cached
// metadata, so a cluster never stalls on (or demand-fetches) an indirect
// block that later blocks would need.
func (fs *FS) fillBlocks(p *sim.Proc, ino *dinode, lbn, reqEnd int32, seq bool) error {
	start, err := fs.blockPtr(p, ino, lbn)
	if err != nil {
		return err
	}
	if start == addr.NilBlock {
		// A hole: materialize a zero block without device I/O.
		fs.insertBuf(ino.Inum, lbn, fs.newZeroBlock(), addr.NilBlock, false)
		return nil
	}
	fileEnd := int32(blocksFor(int(ino.Size)))
	limit := reqEnd - lbn
	if seq && limit < readCluster {
		limit = readCluster
	}
	if limit > readCluster {
		limit = readCluster
	}
	if lbn+limit > fileEnd {
		limit = fileEnd - lbn
	}
	count := int32(1)
	for count < limit {
		next := lbn + count
		if fs.lookupBuf(ino.Inum, next) != nil {
			break
		}
		a, ok := fs.blockPtrCached(ino, next)
		if !ok || a == addr.NilBlock || a != start+addr.BlockNo(count) {
			break
		}
		count++
	}
	// One part per block: the device reads each into a block of the cache's
	// or lends it (dev.Part), and a lent block's own goes back unused.
	parts, lent := fs.fill.parts[:count], fs.fill.lent[:count]
	for i := range parts {
		lent[i] = nil
		parts[i] = dev.Part{Blk: int64(start) + int64(i), Buf: fs.newBlock(), Lend: &lent[i]}
	}
	err = fs.readAt(p, parts)
	for i := range parts {
		data := parts[i].Buf
		switch {
		case err != nil:
			fs.freeBlock(data)
		case lent[i] != nil:
			fs.freeBlock(data)
			b := fs.insertBuf(ino.Inum, lbn+int32(i), lent[i], start+addr.BlockNo(i), false)
			b.lent = true
		default:
			fs.insertBuf(ino.Inum, lbn+int32(i), data, start+addr.BlockNo(i), false)
		}
		parts[i], lent[i] = dev.Part{}, nil
	}
	return err
}

// fillScratch is fillBlocks' request: one part per block of a cluster and
// the slot each may be lent into. readBlock uses the first part.
type fillScratch struct {
	parts [readCluster]dev.Part
	lent  [readCluster][]byte
}

// WriteAt writes len(b) bytes at offset off, extending the file as needed.
// Data are gathered in the buffer cache and appended to the log when a
// segment's worth accumulates (or at Sync/Checkpoint).
func (f *File) WriteAt(p *sim.Proc, b []byte, off int64) (int, error) {
	f.fs.acquire(p)
	defer f.fs.lock.Release(p)
	return f.fs.writeAtLocked(p, f.inum, b, off)
}

func (fs *FS) writeAtLocked(p *sim.Proc, inum uint32, b []byte, off int64) (int, error) {
	ino, err := fs.iget(p, inum)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, ErrNotFound
	}
	if (uint64(off)+uint64(len(b))+BlockSize-1)/BlockSize > maxFileBlocks {
		return 0, ErrFileTooBig
	}
	written := 0
	for written < len(b) {
		lbn := int32((off + int64(written)) / BlockSize)
		blkOff := int((off + int64(written)) % BlockSize)
		want := BlockSize - blkOff
		if want > len(b)-written {
			want = len(b) - written
		}
		var bf *buf
		if blkOff == 0 && want == BlockSize {
			// Full-block overwrite: no read needed.
			bf = fs.lookupBuf(inum, lbn)
			if bf == nil {
				a, err := fs.blockPtr(p, ino, lbn)
				if err != nil {
					return written, err
				}
				// Every byte is overwritten below: no zeroing needed.
				bf = fs.insertBuf(inum, lbn, fs.newBlock(), a, false)
			}
		} else {
			bf = fs.lookupBuf(inum, lbn)
			if bf == nil {
				a, err := fs.blockPtr(p, ino, lbn)
				if err != nil {
					return written, err
				}
				if a == addr.NilBlock || uint64(lbn)*BlockSize >= ino.Size {
					bf = fs.insertBuf(inum, lbn, fs.newZeroBlock(), a, false)
				} else {
					bf, err = fs.getBlock(p, inum, lbn, a)
					if err != nil {
						return written, err
					}
				}
			}
		}
		fs.writable(bf, want == BlockSize)
		copy(bf.data[blkOff:blkOff+want], b[written:written+want])
		fs.markDirty(bf)
		written += want
	}
	if uint64(off)+uint64(written) > ino.Size {
		ino.Size = uint64(off) + uint64(written)
	}
	ino.Mtime = fs.now()
	fs.markInodeDirty(ino)
	if fs.OnAccess != nil && ino.Type != TypeDir && written > 0 {
		fs.OnAccess(inum, int32(off/BlockSize), int32((off+int64(written)-1)/BlockSize)+1, true)
	}
	if len(fs.dirty)*BlockSize >= fs.opts.WriteThreshold {
		if err := fs.flushLocked(p, false); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Truncate sets the file size, freeing blocks beyond it.
func (f *File) Truncate(p *sim.Proc, size uint64) error {
	f.fs.acquire(p)
	defer f.fs.lock.Release(p)
	ino, err := f.fs.iget(p, f.inum)
	if err != nil {
		return err
	}
	return f.fs.truncateLocked(p, ino, size)
}

// Stat describes the file.
func (f *File) Stat(p *sim.Proc) (fi FileInfo, err error) {
	err = f.fs.readOnly(p, func() (err error) {
		fi, err = f.fs.statLocked(p, f.inum)
		return err
	})
	return fi, err
}

func (fs *FS) statLocked(p *sim.Proc, inum uint32) (FileInfo, error) {
	ino, err := fs.iget(p, inum)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{
		Inum:  inum,
		Type:  ino.Type,
		Size:  ino.Size,
		Mtime: ino.Mtime,
		Atime: fs.imap[inum].Atime,
	}, nil
}
