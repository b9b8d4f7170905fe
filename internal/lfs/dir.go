package lfs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// Directory and pathname operations. Directory files hold packed Dirent
// records; every namespace mutation rewrites the directory's blocks
// through the log like any other file data (directories migrate to
// tertiary storage exactly like file contents, §4).

// nextName splits the first component that names something (neither empty
// nor ".") off a slash-separated path, in place; name is "" when none is
// left.
func nextName(path string) (name, rest string) {
	for path != "" {
		name, path, _ = strings.Cut(path, "/")
		if name != "" && name != "." {
			return name, path
		}
	}
	return "", ""
}

// resolveLocked walks path from the root, returning the final inum. Each
// directory on the way is read whole, as readDirLocked reads one (the same
// virtual time, the same buffer-cache traffic), but into a scratch the lock
// owns, and the names are compared where they lie: every Open comes here.
func (fs *FS) resolveLocked(p *sim.Proc, path string) (uint32, error) {
	cur := uint32(rootInum)
	for name, rest := nextName(path); name != ""; name, rest = nextName(rest) {
		ino, err := fs.iget(p, cur)
		if err != nil {
			return 0, err
		}
		if ino.Type != TypeDir {
			return 0, ErrNotDir
		}
		data, err := fs.readDirImage(p, ino, &fs.dirImage)
		if err != nil {
			return 0, err
		}
		next, ok := lookupDirent(data, name)
		if !ok {
			return 0, fmt.Errorf("%q: %w", path, ErrNotFound)
		}
		cur = next
	}
	return cur, nil
}

// readDirImage reads directory ino whole into *buf, a scratch the lock owns,
// kept a block larger than the directory for an edit to grow into.
func (fs *FS) readDirImage(p *sim.Proc, ino *dinode, buf *[]byte) ([]byte, error) {
	if uint64(cap(*buf)) < ino.Size+BlockSize {
		*buf = make([]byte, ino.Size+BlockSize)
	}
	data := (*buf)[:ino.Size]
	if ino.Size == 0 {
		return data, nil
	}
	// A whole-file read always ends at EOF; that is not an error here.
	if _, err := fs.readAtLocked(p, ino.Inum, data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// dirEdit is a namespace edit in progress: the directory holding a path's
// last component, its image as read, and that component. Create, Mkdir,
// Remove and Rename each open one with editDir (Rename two, both read before
// either is written back), edit the image, and write it with writeDirLocked.
type dirEdit struct {
	dir  *dinode
	data []byte // the directory image, in a scratch the lock owns
	name string
	at   int // offset of the record named name in data, -1 if none
	inum uint32
	typ  FileType // the inode and type that record names
}

// editDir resolves the directory containing the last component of path, reads
// its image into *buf, checks every record and finds that component's.
func (fs *FS) editDir(p *sim.Proc, path string, buf *[]byte) (d dirEdit, err error) {
	name, rest := nextName(path)
	if name == "" {
		return d, fmt.Errorf("%q: %w", path, ErrExists)
	}
	// The directory's path is path up to the last component's start.
	dirLen := 0
	for n, r := nextName(rest); n != ""; n, r = nextName(r) {
		name, rest, dirLen = n, r, len(path)-len(rest)
	}
	dirInum := uint32(rootInum)
	if dirLen > 0 {
		if dirInum, err = fs.resolveLocked(p, path[:dirLen]); err != nil {
			return d, err
		}
	}
	if d.dir, err = fs.iget(p, dirInum); err != nil {
		return d, err
	}
	if d.dir.Type != TypeDir {
		return d, ErrNotDir
	}
	if d.data, err = fs.readDirImage(p, d.dir, buf); err != nil {
		return d, err
	}
	d.name, d.at = name, -1
	err = eachDirent(d.data, func(at int, inum uint32, typ FileType, n []byte) {
		if string(n) == name {
			d.at, d.inum, d.typ = at, inum, typ
		}
	})
	return d, err
}

// readDirLocked loads and decodes a directory's entries; a corrupt record is
// ErrCorruptDir.
func (fs *FS) readDirLocked(p *sim.Proc, ino *dinode) (ents []Dirent, err error) {
	data, err := fs.readDirImage(p, ino, &fs.listImage)
	if err == nil {
		err = eachDirent(data, func(_ int, inum uint32, typ FileType, name []byte) {
			ents = append(ents, Dirent{Inum: inum, Type: typ, Name: string(name)})
		})
	}
	if err != nil {
		return nil, err
	}
	return ents, nil
}

// writeDirLocked replaces a directory's contents with the image data.
func (fs *FS) writeDirLocked(p *sim.Proc, ino *dinode, data []byte) error {
	if uint64(len(data)) < ino.Size {
		if err := fs.truncateLocked(p, ino, uint64(len(data))); err != nil {
			return err
		}
	}
	if _, err := fs.writeAtLocked(p, ino.Inum, data, 0); err != nil {
		return err
	}
	if ino.Size != uint64(len(data)) {
		ino.Size = uint64(len(data))
		fs.markInodeDirty(ino)
	}
	return nil
}

// Create makes a new empty regular file.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	fs.acquire(p)
	defer fs.unlock(p)
	ino, err := fs.createLocked(p, path, TypeFile)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, inum: ino.Inum}, nil
}

// createLocked makes an empty file or directory at path.
func (fs *FS) createLocked(p *sim.Proc, path string, typ FileType) (*dinode, error) {
	d, err := fs.editDir(p, path, &fs.dirImage)
	if err != nil {
		return nil, err
	}
	if d.at >= 0 {
		return nil, fmt.Errorf("%q: %w", path, ErrExists)
	}
	if err := checkName(d.name); err != nil {
		return nil, fmt.Errorf("%q: %w", path, err)
	}
	ino, err := fs.iallocLocked(typ)
	if err != nil {
		return nil, err
	}
	if typ == TypeDir {
		ino.Nlink = 2
		if err := fs.writeDirLocked(p, ino, make([]byte, BlockSize)); err != nil {
			return nil, err
		}
	}
	return ino, fs.writeDirLocked(p, d.dir, dirAppend(d.data, ino.Inum, typ, d.name))
}

// withPath runs fn on the inode path names, as a read-only operation (Open
// and ReadDir).
func (fs *FS) withPath(p *sim.Proc, path string, fn func(inum uint32, ino *dinode) error) error {
	return fs.readOnly(p, func() error {
		inum, err := fs.resolveLocked(p, path)
		if err != nil {
			return err
		}
		ino, err := fs.iget(p, inum)
		if err != nil {
			return err
		}
		return fn(inum, ino)
	})
}

// Open opens an existing regular file.
func (fs *FS) Open(p *sim.Proc, path string) (f *File, err error) {
	err = fs.withPath(p, path, func(inum uint32, ino *dinode) error {
		if ino.Type == TypeDir {
			return ErrIsDir
		}
		f = &File{fs: fs, inum: inum}
		return nil
	})
	return f, err
}

// OpenInum opens a file by inode number (used by the migrator, which
// enumerates the inode map rather than the namespace).
func (fs *FS) OpenInum(p *sim.Proc, inum uint32) (*File, error) {
	err := fs.readOnly(p, func() error {
		_, err := fs.iget(p, inum)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, inum: inum}, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string) error {
	fs.acquire(p)
	defer fs.unlock(p)
	_, err := fs.createLocked(p, path, TypeDir)
	return err
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(p *sim.Proc, path string) (ents []Dirent, err error) {
	err = fs.withPath(p, path, func(_ uint32, ino *dinode) error {
		if ino.Type != TypeDir {
			return ErrNotDir
		}
		ents, err = fs.readDirLocked(p, ino)
		return err
	})
	return ents, err
}

// Remove deletes a file or an empty directory.
func (fs *FS) Remove(p *sim.Proc, path string) error {
	fs.acquire(p)
	defer fs.unlock(p)
	d, err := fs.editDir(p, path, &fs.dirImage)
	if err != nil {
		return err
	}
	if d.at < 0 {
		return fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	ino, err := fs.iget(p, d.inum)
	if err != nil {
		return err
	}
	if ino.Type == TypeDir {
		sub, err := fs.readDirLocked(p, ino)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return fmt.Errorf("%q: %w", path, ErrNotEmpty)
		}
	}
	if err := fs.writeDirLocked(p, d.dir, dirDelete(d.data, d.at)); err != nil {
		return err
	}
	return fs.ifreeLocked(p, ino)
}

// Rename moves a file or directory; the destination must not exist.
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	fs.acquire(p)
	defer fs.unlock(p)
	// The two images live in two scratches: resolving newPath reads
	// directories into fs.dirImage, not fs.renameImage.
	from, err := fs.editDir(p, oldPath, &fs.renameImage)
	if err != nil {
		return err
	}
	if from.at < 0 {
		return fmt.Errorf("%q: %w", oldPath, ErrNotFound)
	}
	to, err := fs.editDir(p, newPath, &fs.dirImage)
	if err != nil {
		return err
	}
	if to.at >= 0 {
		return fmt.Errorf("%q: %w", newPath, ErrExists)
	}
	if err := checkName(to.name); err != nil {
		return fmt.Errorf("%q: %w", newPath, err)
	}
	from.data = dirDelete(from.data, from.at)
	if from.dir.Inum == to.dir.Inum {
		to.data = from.data // one directory: one write of both changes
	} else if err := fs.writeDirLocked(p, from.dir, from.data); err != nil {
		return err
	}
	return fs.writeDirLocked(p, to.dir, dirAppend(to.data, from.inum, from.typ, to.name))
}

// Stat describes the file or directory at path.
func (fs *FS) Stat(p *sim.Proc, path string) (fi FileInfo, err error) {
	err = fs.readOnly(p, func() error {
		inum, err := fs.resolveLocked(p, path)
		if err != nil {
			return err
		}
		fi, err = fs.statLocked(p, inum)
		return err
	})
	return fi, err
}

// Walk visits every (path, FileInfo) under root in depth-first order,
// without updating access times — the property namespace-locality
// migration policies rely on (§5.3).
func (fs *FS) Walk(p *sim.Proc, root string, fn func(path string, fi FileInfo) error) error {
	fs.acquire(p)
	defer fs.unlock(p)
	inum, err := fs.resolveLocked(p, root)
	if err != nil {
		return err
	}
	return fs.walkLocked(p, root, inum, fn)
}

func (fs *FS) walkLocked(p *sim.Proc, path string, inum uint32, fn func(string, FileInfo) error) error {
	ino, err := fs.iget(p, inum)
	if err != nil {
		return err
	}
	// Preserve atime: statLocked does not touch it; only data reads do.
	fi := FileInfo{Inum: inum, Type: ino.Type, Size: ino.Size, Mtime: ino.Mtime, Atime: fs.imap[inum].Atime}
	if err := fn(path, fi); err != nil {
		return err
	}
	if ino.Type != TypeDir {
		return nil
	}
	ents, err := fs.readDirLocked(p, ino)
	if err != nil {
		return err
	}
	for _, e := range ents {
		child := path + "/" + e.Name
		if path == "/" || path == "" {
			child = "/" + e.Name
		}
		if err := fs.walkLocked(p, child, e.Inum, fn); err != nil {
			return err
		}
	}
	return nil
}
