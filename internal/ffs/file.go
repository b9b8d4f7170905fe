package ffs

import (
	"io"
	"strings"

	"repro/internal/sim"
)

// File is an open FFS file handle.
type File struct {
	fs   *FS
	inum uint32
}

// ReadAt reads with 64 KB read clustering.
func (f *File) ReadAt(p *sim.Proc, b []byte, off int64) (int, error) {
	f.fs.lock.Acquire(p)
	defer f.fs.lock.Release(p)
	return f.fs.readAt(p, f.inum, b, off)
}

func (fs *FS) readAt(p *sim.Proc, inum uint32, b []byte, off int64) (int, error) {
	ino, err := fs.iget(p, inum)
	if err != nil {
		return 0, err
	}
	if off < 0 || uint64(off) >= ino.size {
		return 0, io.EOF
	}
	n := len(b)
	eof := false
	if uint64(off)+uint64(n) > ino.size {
		n = int(ino.size - uint64(off))
		eof = true
	}
	ino.atime = fs.now()
	firstLbn := int32(off / blockSize)
	reqEnd := int32((off+int64(n)-1)/blockSize) + 1
	lastL, okLast := fs.lastLbn[inum]
	seq := firstLbn == 0 || (okLast && lastL == firstLbn-1)
	read := 0
	for read < n {
		lbn := int32((off + int64(read)) / blockSize)
		blkOff := int((off + int64(read)) % blockSize)
		want := blockSize - blkOff
		if want > n-read {
			want = n - read
		}
		bf, ok := fs.bufs[bufKey{inum, lbn}]
		if ok {
			fs.lruFront(bf)
		} else {
			if err := fs.fillCluster(p, ino, lbn, reqEnd, seq); err != nil {
				return read, err
			}
			bf = fs.bufs[bufKey{inum, lbn}]
		}
		copy(b[read:read+want], bf.data[blkOff:blkOff+want])
		read += want
	}
	fs.lastLbn[inum] = reqEnd - 1
	if fs.opts.UserCopyRate > 0 && read > 0 {
		p.Sleep(sim.Time(float64(read) / float64(fs.opts.UserCopyRate) * 1e9))
	}
	if eof {
		return read, io.EOF
	}
	return read, nil
}

// fillCluster reads lbn plus following blocks whose disk addresses are
// contiguous: the rest of the request, plus read-ahead to a full
// maxContig cluster on sequentially accessed files. Extension consults
// only cached metadata.
func (fs *FS) fillCluster(p *sim.Proc, ino *inode, lbn, reqEnd int32, seq bool) error {
	start, err := fs.bmap(p, ino, lbn, false)
	if err != nil {
		return err
	}
	if start == nilBlock {
		fs.insertBuf(bufKey{ino.inum, lbn}, nilBlock, make([]byte, blockSize), false)
		return nil
	}
	fileEnd := int32((ino.size + blockSize - 1) / blockSize)
	limit := reqEnd - lbn
	if seq && limit < maxContig {
		limit = maxContig
	}
	if limit > maxContig {
		limit = maxContig
	}
	if lbn+limit > fileEnd {
		limit = fileEnd - lbn
	}
	count := int32(1)
	for count < limit {
		if _, ok := fs.bufs[bufKey{ino.inum, lbn + count}]; ok {
			break
		}
		nb, ok := fs.bmapCached(ino, lbn+count)
		if !ok || nb != start+uint32(count) {
			break
		}
		count++
	}
	data := make([]byte, int(count)*blockSize)
	if err := fs.dev.ReadBlocks(p, int64(start), data); err != nil {
		return err
	}
	for i := int32(0); i < count; i++ {
		blk := make([]byte, blockSize)
		copy(blk, data[int(i)*blockSize:])
		fs.insertBuf(bufKey{ino.inum, lbn + i}, start+uint32(i), blk, false)
	}
	return fs.evict(p)
}

// WriteAt writes in place: each block is directed to its assigned
// location; dirty data drains through the clustering write-back.
func (f *File) WriteAt(p *sim.Proc, b []byte, off int64) (int, error) {
	f.fs.lock.Acquire(p)
	defer f.fs.lock.Release(p)
	return f.fs.writeAt(p, f.inum, b, off)
}

func (fs *FS) writeAt(p *sim.Proc, inum uint32, b []byte, off int64) (int, error) {
	ino, err := fs.iget(p, inum)
	if err != nil {
		return 0, err
	}
	written := 0
	for written < len(b) {
		lbn := int32((off + int64(written)) / blockSize)
		blkOff := int((off + int64(written)) % blockSize)
		want := blockSize - blkOff
		if want > len(b)-written {
			want = len(b) - written
		}
		blk, err := fs.bmap(p, ino, lbn, true)
		if err != nil {
			return written, err
		}
		bf, ok := fs.bufs[bufKey{inum, lbn}]
		if !ok {
			var data []byte
			if blkOff == 0 && want == blockSize {
				data = make([]byte, blockSize)
			} else if uint64(lbn)*blockSize < ino.size {
				data = make([]byte, blockSize)
				if err := fs.dev.ReadBlocks(p, int64(blk), data); err != nil {
					return written, err
				}
			} else {
				data = make([]byte, blockSize)
			}
			bf = fs.insertBuf(bufKey{inum, lbn}, blk, data, false)
		}
		bf.blk = blk
		copy(bf.data[blkOff:blkOff+want], b[written:written+want])
		bf.dirty = true
		written += want
	}
	if uint64(off)+uint64(written) > ino.size {
		ino.size = uint64(off) + uint64(written)
	}
	ino.mtime = fs.now()
	fs.dirtyIno[inum] = true
	if err := fs.evict(p); err != nil {
		return written, err
	}
	return written, nil
}

// Sync writes back all dirty data and metadata.
func (fs *FS) Sync(p *sim.Proc) error {
	fs.lock.Acquire(p)
	defer fs.lock.Release(p)
	return fs.flushLocked(p)
}

// FlushCaches writes back dirty state and drops the caches (cold-read
// benchmarks).
func (fs *FS) FlushCaches(p *sim.Proc) error {
	fs.lock.Acquire(p)
	defer fs.lock.Release(p)
	if err := fs.flushLocked(p); err != nil {
		return err
	}
	fs.bufs = make(map[bufKey]*buf)
	fs.lruHead, fs.lruTail = nil, nil
	fs.bufBytes = 0
	fs.inodes = make(map[uint32]*inode)
	fs.lastLbn = make(map[uint32]int32)
	return nil
}

// --- directories (same packed record format as the LFS implementation) ---

// dirent is one directory entry.
type dirent struct {
	Inum uint32
	Type fileType
	Name string
}

func (fs *FS) readDir(p *sim.Proc, ino *inode) ([]dirent, error) {
	if ino.size == 0 {
		return nil, nil
	}
	data := make([]byte, ino.size)
	if _, err := fs.readAt(p, ino.inum, data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	var ents []dirent
	for off := 0; off+6 <= len(data); {
		inum := uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24
		if inum == 0 {
			break
		}
		typ := fileType(data[off+4])
		nl := int(data[off+5])
		ents = append(ents, dirent{Inum: inum, Type: typ, Name: string(data[off+6 : off+6+nl])})
		off += 6 + nl
	}
	return ents, nil
}

func (fs *FS) writeDir(p *sim.Proc, ino *inode, ents []dirent) error {
	var out []byte
	for _, e := range ents {
		hdr := []byte{byte(e.Inum), byte(e.Inum >> 8), byte(e.Inum >> 16), byte(e.Inum >> 24), byte(e.Type), byte(len(e.Name))}
		out = append(out, hdr...)
		out = append(out, e.Name...)
	}
	out = append(out, 0, 0, 0, 0, 0, 0)
	if _, err := fs.writeAt(p, ino.inum, out, 0); err != nil {
		return err
	}
	ino.size = uint64(len(out))
	fs.dirtyIno[ino.inum] = true
	return nil
}

func splitPath(path string) []string {
	var parts []string
	for _, c := range strings.Split(path, "/") {
		if c != "" && c != "." {
			parts = append(parts, c)
		}
	}
	return parts
}

func (fs *FS) resolve(p *sim.Proc, path string) (uint32, error) {
	cur := uint32(rootInum)
	for _, name := range splitPath(path) {
		ino, err := fs.iget(p, cur)
		if err != nil {
			return 0, err
		}
		if ino.typ != typeDir {
			return 0, ErrNotDir
		}
		ents, err := fs.readDir(p, ino)
		if err != nil {
			return 0, err
		}
		found := false
		for _, e := range ents {
			if e.Name == name {
				cur = e.Inum
				found = true
				break
			}
		}
		if !found {
			return 0, ErrNotFound
		}
	}
	return cur, nil
}

func (fs *FS) resolveParent(p *sim.Proc, path string) (*inode, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", ErrExists
	}
	dirInum := uint32(rootInum)
	if len(parts) > 1 {
		var err error
		dirInum, err = fs.resolve(p, strings.Join(parts[:len(parts)-1], "/"))
		if err != nil {
			return nil, "", err
		}
	}
	ino, err := fs.iget(p, dirInum)
	if err != nil {
		return nil, "", err
	}
	if ino.typ != typeDir {
		return nil, "", ErrNotDir
	}
	return ino, parts[len(parts)-1], nil
}

// Create makes a new empty file.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	fs.lock.Acquire(p)
	defer fs.lock.Release(p)
	dir, name, err := fs.resolveParent(p, path)
	if err != nil {
		return nil, err
	}
	ents, err := fs.readDir(p, dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.Name == name {
			return nil, ErrExists
		}
	}
	ino, err := fs.iallocProbe(rootInum+1, typeFile)
	if err != nil {
		return nil, err
	}
	ents = append(ents, dirent{Inum: ino.inum, Type: typeFile, Name: name})
	if err := fs.writeDir(p, dir, ents); err != nil {
		return nil, err
	}
	return &File{fs: fs, inum: ino.inum}, nil
}

// Open opens an existing file.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	fs.lock.Acquire(p)
	defer fs.lock.Release(p)
	inum, err := fs.resolve(p, path)
	if err != nil {
		return nil, err
	}
	ino, err := fs.iget(p, inum)
	if err != nil {
		return nil, err
	}
	if ino.typ == typeDir {
		return nil, ErrIsDir
	}
	return &File{fs: fs, inum: inum}, nil
}
