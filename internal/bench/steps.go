package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/wl"
)

// The workload steps the cells are assembled from. Each runs inside the
// cell's process and returns its error; none consumes virtual time beyond
// the file-system calls it makes.

// writeFile creates path and fills it with blocks zero blocks in one write.
func writeFile(p *sim.Proc, fs *lfs.FS, path string, blocks int) (*lfs.File, error) {
	f, err := fs.Create(p, path)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteAt(p, make([]byte, blocks*lfs.BlockSize), 0); err != nil {
		return nil, err
	}
	return f, nil
}

// writeFiles populates fs with n files of blocks blocks each, named by
// pathFmt applied to the file's index, and returns their inode numbers.
func writeFiles(p *sim.Proc, fs *lfs.FS, pathFmt string, n, blocks int) ([]uint32, error) {
	inums := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		f, err := writeFile(p, fs, fmt.Sprintf(pathFmt, i), blocks)
		if err != nil {
			return nil, err
		}
		inums = append(inums, f.Inum())
	}
	return inums, nil
}

// migrateAll migrates the files whole and waits until every staged segment
// is on tertiary media; it returns the bytes staged.
func migrateAll(p *sim.Proc, hl *core.HighLight, inums []uint32) (int64, error) {
	staged, err := hl.MigrateFiles(p, inums, false)
	if err != nil {
		return 0, err
	}
	return staged, hl.CompleteMigration(p)
}

// readChunks reads the first size bytes of f in len(buf)-byte reads and
// returns the bytes read; running into end of file is not an error.
func readChunks(p *sim.Proc, f *lfs.File, size int64, buf []byte) (int64, error) {
	var total int64
	for off := int64(0); off < size; off += int64(len(buf)) {
		n, err := f.ReadAt(p, buf, off)
		if err != nil && err != io.EOF {
			return total, err
		}
		total += int64(n)
	}
	return total, nil
}

// readBack reads blocks blocks of every file, chunk blocks per read,
// dropping the file's buffered blocks first so the reads go past the
// buffer cache to the segment cache or tertiary storage.
func readBack(p *sim.Proc, fs *lfs.FS, inums []uint32, blocks, chunk int) (int64, error) {
	buf := make([]byte, chunk*lfs.BlockSize)
	var total int64
	for _, in := range inums {
		f, err := fs.OpenInum(p, in)
		if err != nil {
			return total, err
		}
		fs.DropFileBuffers(p, in)
		n, err := readChunks(p, f, int64(blocks)*lfs.BlockSize, buf)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// objectMigration times the migration of the large object, from the start
// of the migrator's run: when it finished assembling staging segments
// (copy-outs contending with it for the disk arm until then) and when the
// last copy-out reached tertiary media, with tertiary.bytes_out at both.
type objectMigration struct {
	staged, drained           sim.Time
	bytesStaged, bytesDrained int64
}

// migrateLargeObject writes the scale's large object on r, migrates it
// whole and waits for the copy-outs: the object is then on tertiary media
// and still resident in the segment cache.
func migrateLargeObject(p *sim.Proc, r *fsRig, s Scale) (*lfs.File, objectMigration, error) {
	var m objectMigration
	hl := r.hl
	spec := s.spec()
	if _, err := wl.CreateLargeObject(p, r.t, spec); err != nil {
		return nil, m, err
	}
	f, err := hl.FS.Open(p, spec.Path)
	if err != nil {
		return nil, m, err
	}
	start := p.Now()
	if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
		return nil, m, err
	}
	m.staged = p.Now() - start
	m.bytesStaged = hl.Obs.Counter("tertiary.bytes_out").Value()
	if err := hl.CompleteMigration(p); err != nil {
		return nil, m, err
	}
	m.drained = p.Now() - start
	m.bytesDrained = hl.Obs.Counter("tertiary.bytes_out").Value()
	return f, m, nil
}
