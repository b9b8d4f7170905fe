package lfs

import (
	"sort"

	"repro/internal/addr"
	"repro/internal/sim"
)

// Migration support: the lfs_migratev analogue (§6.7). The migrator
// selects file blocks by policy, locates them with lfs_bmapv, and calls
// lfs_migratev to gather and rewrite those blocks into the staging segment
// on disk. The staging segment is a valid LFS segment image addressed with
// the block numbers it will use on the tertiary volume; when it fills, the
// service process copies it out as a unit (§6.2).
//
// Migratev runs under the file system lock: it captures block contents,
// re-points metadata at the tertiary addresses, and writes the staged
// image into the cache-line disk segment in one atomic step, so no reader
// ever observes a tertiary pointer before the staged copy is readable.

// FileBlockRefs lists every block of a file — data blocks first, then
// indirect blocks — with current addresses. Dirty state must be flushed
// first so that every block has a media address; call Sync beforehand.
func (fs *FS) FileBlockRefs(p *sim.Proc, inum uint32) ([]BlockRef, error) {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	ino, err := fs.iget(p, inum)
	if err != nil {
		return nil, err
	}
	ver := fs.imap[inum].Version
	nblocks := int32(blocksFor(int(ino.Size)))
	refs := make([]BlockRef, 0, int(nblocks)+2+max(0, doubleChildren(int(nblocks)))) // room for every block: it never regrows
	for lbn := int32(0); lbn < nblocks; lbn++ {
		a, err := fs.blockPtr(p, ino, lbn)
		if err != nil {
			return nil, err
		}
		if a != addr.NilBlock {
			refs = append(refs, BlockRef{Inum: inum, Version: ver, Lbn: lbn, Addr: a})
		}
	}
	// Indirect blocks last, so that a staged indirect block lands after
	// the data it describes and reflects the data's new addresses.
	appendMeta := func(lbn int32) error {
		a, err := fs.blockPtr(p, ino, lbn)
		if err != nil {
			return err
		}
		if a != addr.NilBlock {
			refs = append(refs, BlockRef{Inum: inum, Version: ver, Lbn: lbn, Addr: a})
		}
		return nil
	}
	if nblocks > nDirect {
		if err := appendMeta(LbnSingle); err != nil {
			return nil, err
		}
	}
	if int(nblocks) > nDirect+ptrsPerBlock {
		for i := 0; i < doubleChildren(int(nblocks)); i++ {
			if err := appendMeta(lbnDoubleChild(i)); err != nil {
				return nil, err
			}
		}
		if err := appendMeta(lbnDoubleRoot); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// MigrateResult reports what one Migratev call staged.
type MigrateResult struct {
	Applied     []bool // per ref: block was live and has been migrated
	Blocks      int    // content blocks staged (excluding summary/inodes)
	InodesMoved int
	NextOff     int  // next free block offset in the staging segment
	Full        bool // the staging segment could not take everything
	// Consumed is the count of leading refs fully processed (staged or
	// permanently dead); on Full, the caller resubmits refs[Consumed:]
	// against a fresh staging segment.
	Consumed int
}

// Migratev stages the live blocks named by refs into the staging segment:
// it appends one partial segment to the tertiary segment image line (one
// segment's bytes), addressed at tertSeg starting at block offset off,
// assembling it in line itself, mirrors it into the cache-line disk segment
// cacheSeg at the same offset with a keeping write (Device.KeepBlocks), and
// re-points all file system metadata at the new tertiary addresses. The
// caller never changes the blocks of line a call has staged, since the device
// may keep them; a copy-out may read the line back into line.
//
// If inodeInums is non-empty those inodes are serialized into trailing
// inode blocks and the inode map is re-pointed at them (metadata
// migration, §4). Refs whose blocks died or are dirty in the buffer cache
// are skipped. If the remaining space cannot hold every live block the
// call stages what fits and sets Full; the caller continues in a fresh
// segment.
func (fs *FS) Migratev(p *sim.Proc, refs []BlockRef, inodeInums []uint32, tertSeg, cacheSeg addr.SegNo, off int, line []byte) (*MigrateResult, error) {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	res := &MigrateResult{Applied: make([]bool, len(refs)), NextOff: off, Consumed: len(refs)}

	// Filter to live, stable blocks.
	live := make([]BlockRef, 0, len(refs))
	idx := make([]int, 0, len(refs)) // the index in refs of each live block
	for i, r := range refs {
		ok, err := fs.refLiveLocked(p, r)
		if err != nil {
			return res, err
		}
		if !ok {
			continue
		}
		// A dirty data block is unstable: newer content awaits the disk
		// log, so migrating the media copy would stage stale bytes.
		// Dirty META blocks are different: pointer flips from earlier
		// Migratev calls dirty them, and staging captures their content
		// from the buffer cache (authoritative), so they stay eligible.
		if r.Lbn >= 0 {
			if b, cached := fs.bufs[bufKey{r.Inum, r.Lbn}]; cached && b.dirty {
				continue
			}
		}
		live = append(live, r)
		idx = append(idx, i)
	}
	inoBlocks := (len(inodeInums) + InodesPerBlock - 1) / InodesPerBlock
	avail := fs.amap.SegBlocks() - off - 1 // room after the summary
	if avail < 1 {
		res.Full = true
		res.Consumed = 0 // nothing processed; resubmit everything
		return res, nil
	}
	if len(live)+inoBlocks > avail {
		res.Full = true
		cut := min(max(avail-inoBlocks, 0), len(live))
		live = live[:cut]
		if cut == 0 {
			res.Consumed = 0
			if inoBlocks > avail {
				return res, nil
			}
		} else {
			res.Consumed = idx[cut-1] + 1
		}
	}
	if len(live) == 0 && len(inodeInums) == 0 {
		return res, nil
	}

	// The staged partial segment is assembled in place: live block i goes to
	// block off+1+i of the line, behind the summary.
	image := line[off*BlockSize : (off+1+len(live)+inoBlocks)*BlockSize]
	content := image[BlockSize:]

	// Capture data content before any pointer moves. Batch contiguous
	// source addresses into single device transfers (the migrator reads
	// from the raw disk, §6.7 — these reads contend for the disk arm,
	// Table 6), each gathered straight into its final position.
	maxRun := fs.opts.GatherChunkBlocks
	if maxRun <= 0 {
		maxRun = 1 << 20
	}
	for i := 0; i < len(live); {
		if live[i].Lbn < 0 {
			i++ // meta blocks are captured after data pointer flips
			continue
		}
		j := i + 1
		for j < len(live) && j-i < maxRun && live[j].Lbn >= 0 &&
			live[j].Addr == live[i].Addr+addr.BlockNo(j-i) {
			j++
		}
		if err := fs.readRunLocked(p, live[i], content[i*BlockSize:j*BlockSize]); err != nil {
			return res, err
		}
		i = j
	}

	// Flip data pointers to the staged addresses, then capture meta content
	// (now reflecting the new data addresses) and flip meta pointers.
	base := fs.amap.BlockOf(tertSeg, off)
	for _, meta := range []bool{false, true} {
		for i, r := range live {
			if (r.Lbn < 0) != meta {
				continue
			}
			na := base + addr.BlockNo(1+i)
			ino, err := fs.iget(p, r.Inum)
			if err != nil {
				return res, err
			}
			var b *buf
			if meta {
				if b, err = fs.getMeta(p, ino, r.Lbn, false); err != nil {
					return res, err
				}
				if b == nil {
					clear(content[i*BlockSize : (i+1)*BlockSize])
					continue // vanished; leave Applied false
				}
				copy(content[i*BlockSize:], b.data)
			}
			if err := fs.setBlockPtr(p, ino, r.Lbn, na); err != nil {
				return res, err
			}
			fs.accountOld(r.Addr, BlockSize)
			fs.accountNew(na, BlockSize)
			if !meta {
				b = fs.bufs[bufKey{r.Inum, r.Lbn}]
			}
			if b != nil {
				b.addr = na
				// The staged copy includes every update; the disk log
				// need not rewrite it.
				fs.markClean(b)
			}
			res.Applied[idx[i]] = true
		}
	}

	// Serialize inodes (after all pointer flips), re-point the map, and
	// mirror the staged partial segment into the cache-line disk segment
	// (assembled "on-disk in a dirty cache line", §6.2).
	sum := &Summary{Next: tertSeg, Create: fs.now(), Serial: fs.serial, Flags: sumStaging}
	sorted := append([]uint32{}, inodeInums...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	moved, err := fs.writePseg(p, sum, image, true, fs.amap.BlockOf(cacheSeg, off), base, live, sorted)
	res.InodesMoved = moved
	if err != nil {
		return res, err
	}
	if su := fs.seguseFor(base); su != nil {
		su.LastMod = fs.now()
	}
	res.Blocks = len(live)
	res.NextOff = off + 1 + len(live) + inoBlocks
	return res, nil
}

// readRunLocked reads a run of blocks starting at ref's address, from the
// buffer cache when the first block is resident, else from the device.
func (fs *FS) readRunLocked(p *sim.Proc, ref BlockRef, run []byte) error {
	if len(run) == BlockSize {
		if b, ok := fs.bufs[bufKey{ref.Inum, ref.Lbn}]; ok {
			copy(run, b.data)
			return nil
		}
	}
	if err := fs.dev.ReadBlocks(p, ref.Addr, run); err != nil {
		return err
	}
	fs.stats.DevReads++
	fs.stats.BytesRead += int64(len(run))
	return nil
}

// ReadRawBlocks reads blocks by address, bypassing the buffer cache (the
// migrator "has direct access to the raw disk device", §6.7).
func (fs *FS) ReadRawBlocks(p *sim.Proc, a addr.BlockNo, buf []byte) error {
	if err := fs.dev.ReadBlocks(p, a, buf); err != nil {
		return err
	}
	fs.stats.DevReads++
	fs.stats.BytesRead += int64(len(buf))
	return nil
}

// DropFileBuffers removes a file's clean blocks from the buffer cache
// (used after migration so reads exercise the demand-fetch path, and by
// benchmarks forcing cold caches).
func (fs *FS) DropFileBuffers(p *sim.Proc, inum uint32) {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	var victims []*buf
	for _, b := range fs.bufs {
		if b.key.inum == inum && !b.dirty {
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		fs.dropBuf(b)
	}
	if !fs.dirtyIno[inum] {
		delete(fs.inodes, inum)
	}
}
