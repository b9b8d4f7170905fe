package lfs

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Directory and pathname operations. Directory files hold packed Dirent
// records; every namespace mutation rewrites the directory's blocks
// through the log like any other file data (directories migrate to
// tertiary storage exactly like file contents, §4).

// splitPath normalizes a slash-separated absolute or relative path.
func splitPath(path string) []string {
	var parts []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		default:
			parts = append(parts, c)
		}
	}
	return parts
}

// resolveLocked walks path from the root, returning the final inum.
func (fs *FS) resolveLocked(p *sim.Proc, path string) (uint32, error) {
	cur := uint32(RootInum)
	for _, name := range splitPath(path) {
		ino, err := fs.iget(p, cur)
		if err != nil {
			return 0, err
		}
		if ino.Type != TypeDir {
			return 0, ErrNotDir
		}
		next, ok, err := fs.lookupLocked(p, ino, name)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("%q: %w", path, ErrNotFound)
		}
		cur = next
	}
	return cur, nil
}

// lookupLocked finds name in directory ino. It reads the directory exactly as
// readDirLocked does (one whole-file read: the same virtual time, the same
// buffer-cache traffic) but into a scratch the lock owns, and compares the
// names where they lie: every Open walks its path through here.
func (fs *FS) lookupLocked(p *sim.Proc, ino *Inode, name string) (uint32, bool, error) {
	if ino.Size == 0 {
		return 0, false, nil
	}
	if uint64(cap(fs.dirImage)) < ino.Size {
		fs.dirImage = make([]byte, ino.Size)
	}
	data := fs.dirImage[:ino.Size]
	if _, err := fs.readAtLocked(p, ino.Inum, data, 0); err != nil && err != io.EOF {
		return 0, false, err
	}
	inum, ok := lookupDirent(data, name)
	return inum, ok, nil
}

// dirEdit is a namespace edit in progress: the directory holding a path's
// last component, its entries as read, and that component. Create, Mkdir,
// Remove and Rename each open one with editDir (Rename two, both read
// before either is written back), change ents, and write it back with
// writeDirLocked: the one path by which a name enters or leaves a directory.
type dirEdit struct {
	dir   *Inode
	ents  []Dirent
	name  string
	ent   Dirent // the entry named name, if found
	found bool
}

// editDir resolves the directory containing the last component of path and
// reads its entries.
func (fs *FS) editDir(p *sim.Proc, path string) (*dirEdit, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, fmt.Errorf("%q: %w", path, ErrExists)
	}
	dirInum := uint32(RootInum)
	if len(parts) > 1 {
		var err error
		dirInum, err = fs.resolveLocked(p, strings.Join(parts[:len(parts)-1], "/"))
		if err != nil {
			return nil, err
		}
	}
	dir, err := fs.iget(p, dirInum)
	if err != nil {
		return nil, err
	}
	if dir.Type != TypeDir {
		return nil, ErrNotDir
	}
	d := &dirEdit{dir: dir, name: parts[len(parts)-1]}
	if d.ents, err = fs.readDirLocked(p, dir); err != nil {
		return nil, err
	}
	d.ent, d.found = findEnt(d.ents, d.name)
	return d, nil
}

func findEnt(ents []Dirent, name string) (Dirent, bool) {
	for _, e := range ents {
		if e.Name == name {
			return e, true
		}
	}
	return Dirent{}, false
}

// add enters inum under the edit's name.
func (d *dirEdit) add(inum uint32, typ FileType) {
	d.ents = append(d.ents, Dirent{Inum: inum, Type: typ, Name: d.name})
}

// drop takes the edit's name out.
func (d *dirEdit) drop() {
	d.ents = slices.DeleteFunc(d.ents, func(e Dirent) bool { return e.Name == d.name })
}

// readDirLocked loads and decodes a directory's entries; a corrupt record is
// ErrCorruptDir.
func (fs *FS) readDirLocked(p *sim.Proc, ino *Inode) ([]Dirent, error) {
	if ino.Size == 0 {
		return nil, nil
	}
	data := make([]byte, ino.Size)
	// A whole-file read always ends at EOF; that is not an error here.
	if _, err := fs.readAtLocked(p, ino.Inum, data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return decodeDirents(data)
}

// writeDirLocked replaces a directory's contents.
func (fs *FS) writeDirLocked(p *sim.Proc, ino *Inode, ents []Dirent) error {
	data := encodeDirents(ents)
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
	defer fs.lock.Release(p)
	ino, err := fs.createLocked(p, path, TypeFile)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, inum: ino.Inum}, nil
}

// createLocked makes an empty file or directory at path.
func (fs *FS) createLocked(p *sim.Proc, path string, typ FileType) (*Inode, error) {
	d, err := fs.editDir(p, path)
	if err != nil {
		return nil, err
	}
	if d.found {
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
		if err := fs.writeDirLocked(p, ino, nil); err != nil {
			return nil, err
		}
	}
	d.add(ino.Inum, typ)
	return ino, fs.writeDirLocked(p, d.dir, d.ents)
}

// withPath runs fn on the inode path names, as a read-only operation (Open
// and ReadDir).
func (fs *FS) withPath(p *sim.Proc, path string, fn func(inum uint32, ino *Inode) error) error {
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
	err = fs.withPath(p, path, func(inum uint32, ino *Inode) error {
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
	defer fs.lock.Release(p)
	_, err := fs.createLocked(p, path, TypeDir)
	return err
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(p *sim.Proc, path string) (ents []Dirent, err error) {
	err = fs.withPath(p, path, func(_ uint32, ino *Inode) error {
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
	defer fs.lock.Release(p)
	d, err := fs.editDir(p, path)
	if err != nil {
		return err
	}
	if !d.found {
		return fmt.Errorf("%q: %w", path, ErrNotFound)
	}
	ino, err := fs.iget(p, d.ent.Inum)
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
	d.drop()
	if err := fs.writeDirLocked(p, d.dir, d.ents); err != nil {
		return err
	}
	return fs.ifreeLocked(p, ino)
}

// Rename moves a file or directory; the destination must not exist.
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string) error {
	fs.acquire(p)
	defer fs.lock.Release(p)
	from, err := fs.editDir(p, oldPath)
	if err != nil {
		return err
	}
	if !from.found {
		return fmt.Errorf("%q: %w", oldPath, ErrNotFound)
	}
	to, err := fs.editDir(p, newPath)
	if err != nil {
		return err
	}
	if to.found {
		return fmt.Errorf("%q: %w", newPath, ErrExists)
	}
	if err := checkName(to.name); err != nil {
		return fmt.Errorf("%q: %w", newPath, err)
	}
	from.drop()
	if from.dir.Inum == to.dir.Inum {
		to.ents = from.ents // one directory: one write of both changes
	} else if err := fs.writeDirLocked(p, from.dir, from.ents); err != nil {
		return err
	}
	to.add(from.ent.Inum, from.ent.Type)
	return fs.writeDirLocked(p, to.dir, to.ents)
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
	defer fs.lock.Release(p)
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
