package lfs

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/addr"
	"repro/internal/sim"
)

// The segment writer gathers all dirty blocks and inodes and appends them
// to the log as one or more partial segments, each written with a single
// large device transfer — the mechanism that gives LFS its sequential
// write performance (§3).

// psegPlan is one planned partial segment.
type psegPlan struct {
	seg       addr.SegNo
	off       int    // block offset of the summary within seg
	bufs      []*buf // content blocks, in order
	inoBlocks int    // inode blocks appended after the content blocks
	inums     []uint32
}

// flushScratch is the segment writer's bookkeeping — the dirty sets and the
// summary's block lists — kept between flushes so a steady-state flush
// rebuilds none of it from nothing. A flush nested in another's emergency
// clean overwrites it; the outer flush recomputes everything afterwards.
type flushScratch struct {
	seen               map[bufKey]bool // dirtyParents: blocks already handled
	todo               []bufKey
	data, meta, blocks []*buf
	refs               []BlockRef // one partial segment's content blocks
	lbns               []int32    // backing store of one summary's Finfo.Lbns
}

// flushLocked writes all dirty state to the log. checkpointFlag marks the
// resulting partial segments as checkpoint-generated.
func (fs *FS) flushLocked(p *sim.Proc, checkpointFlag bool) error {
	if fs.inFlush {
		panic("lfs: recursive flush")
	}
	for {
		// Transitively dirty the parents of every dirty block, so that
		// relocation can update pointers wholly within the dirty set.
		if err := fs.dirtyParents(p); err != nil {
			return err
		}
		data, meta := fs.dirtyList()
		inums := fs.dirtyInums(data, meta)
		if len(data)+len(meta)+len(inums) == 0 {
			return nil
		}
		blocks := append(append(fs.flush.blocks[:0], data...), meta...)
		fs.flush.blocks = blocks
		inoBlocks := (len(inums) + InodesPerBlock - 1) / InodesPerBlock
		units := len(blocks) + inoBlocks
		perSeg := fs.amap.SegBlocks() - 1
		needSegs := (units+perSeg-1)/perSeg + 1
		if !fs.inEmergency {
			// Normal writes may not dip into the cleaner's reserve:
			// cleaning needs free segments to copy live data into.
			needSegs += cleanerReserve
		}
		if fs.nclean < needSegs {
			if fs.EmergencyClean == nil || fs.inEmergency {
				return ErrNoSpace
			}
			fs.inEmergency = true
			ok := fs.EmergencyClean(p)
			fs.inEmergency = false
			if !ok {
				return ErrNoSpace
			}
			continue // the cleaner flushed and freed space; recompute
		}
		return fs.writePsegs(p, blocks, inums, inoBlocks, checkpointFlag)
	}
}

// dirtyParents loads and dirties the ancestors of every dirty block, so
// relocation can update pointers wholly within the dirty set. The loop
// iterates until no unprocessed dirty block remains (dirtying a parent can
// surface a grandparent).
func (fs *FS) dirtyParents(p *sim.Proc) error {
	if fs.flush.seen == nil {
		fs.flush.seen = make(map[bufKey]bool)
	}
	seen := fs.flush.seen
	clear(seen)
	for {
		todo := fs.flush.todo[:0]
		for k := range fs.dirty {
			if !seen[k] {
				todo = append(todo, k)
			}
		}
		fs.flush.todo = todo
		if len(todo) == 0 {
			return nil
		}
		// fs.dirty is a map: fix the order, since loading an uncached parent
		// is a timed read and the arm's seek depends on the one before.
		slices.SortFunc(todo, cmpKey)
		for _, k := range todo {
			seen[k] = true
			pl := parentLbn(k.lbn)
			if pl == lbnInode {
				continue
			}
			ino, err := fs.iget(p, k.inum)
			if err != nil {
				return fmt.Errorf("lfs: dirty block for unloadable inode %d: %w", k.inum, err)
			}
			parent, err := fs.getMeta(p, ino, pl, true)
			if err != nil {
				return err
			}
			fs.markDirty(parent)
		}
	}
}

// dirtyInums is the sorted set of inodes to write: explicitly dirty ones
// plus the owner of every dirty block.
func (fs *FS) dirtyInums(data, meta []*buf) []uint32 {
	set := make(map[uint32]bool, len(fs.dirtyIno))
	for i := range fs.dirtyIno {
		set[i] = true
	}
	for _, b := range data {
		set[b.key.inum] = true
	}
	for _, b := range meta {
		set[b.key.inum] = true
	}
	out := make([]uint32, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// writePsegs plans, relocates, serializes and writes the partial segments.
func (fs *FS) writePsegs(p *sim.Proc, blocks []*buf, inums []uint32, inoBlocks int, checkpointFlag bool) error {
	fs.inFlush = true
	defer func() { fs.inFlush = false }()

	// Plan: fill segments greedily; inode blocks come last.
	var plans []psegPlan
	seg, off := fs.curSeg, fs.curOff
	chosen := map[addr.SegNo]bool{}
	bi := 0
	inosLeft := inoBlocks
	for bi < len(blocks) || inosLeft > 0 {
		avail := fs.amap.SegBlocks() - off - 1
		if avail < 1 {
			next, err := fs.pickSegment(chosen)
			if err != nil {
				return err
			}
			chosen[next] = true
			seg, off = next, 0
			avail = fs.amap.SegBlocks() - 1
		}
		pl := psegPlan{seg: seg, off: off}
		take := len(blocks) - bi
		if take > avail {
			take = avail
		}
		pl.bufs = blocks[bi : bi+take]
		bi += take
		avail -= take
		if bi == len(blocks) && inosLeft > 0 && avail > 0 {
			n := inosLeft
			if n > avail {
				n = avail
			}
			pl.inoBlocks = n
			inosLeft -= n
		}
		off += 1 + len(pl.bufs) + pl.inoBlocks
		if len(pl.bufs)+pl.inoBlocks > 0 {
			plans = append(plans, pl)
		}
	}
	if len(plans) == 0 {
		return nil
	}
	// If the flush exhausts its final segment, the next pseg must open a
	// fresh segment — pick it now so the last summary can thread to it.
	// Roll-forward follows the log through Next pointers only; a
	// self-pointing Next in a full segment would end the chain and
	// silently drop everything synced after the boundary.
	var nextSeg addr.SegNo
	haveNext := false
	if fs.amap.SegBlocks()-off-1 < 1 {
		if next, err := fs.pickSegment(chosen); err == nil {
			chosen[next] = true
			nextSeg, haveNext = next, true
		}
	}
	// The inodes land in the trailing partial segments; attach the inum
	// list to the plans that carry inode blocks.
	{
		rest := inums
		for i := range plans {
			if plans[i].inoBlocks == 0 {
				continue
			}
			n := plans[i].inoBlocks * InodesPerBlock
			if n > len(rest) {
				n = len(rest)
			}
			plans[i].inums = rest[:n]
			rest = rest[n:]
		}
	}

	now := fs.now()
	for pi := range plans {
		pl := &plans[pi]
		base := fs.amap.BlockOf(pl.seg, pl.off)
		if pl.seg != fs.curSeg {
			fs.advanceLog(pl.seg)
		}
		fs.curOff = pl.off + 1 + len(pl.bufs) + pl.inoBlocks
		sum := &Summary{Next: pl.seg, Create: now, Serial: fs.serial}
		if checkpointFlag {
			sum.Flags |= SumCheckpoint
		}
		if pi+1 < len(plans) {
			sum.Next = plans[pi+1].seg
		} else if haveNext {
			sum.Next = nextSeg
		}
		// Relocate content blocks: assign addresses, update parents, adjust
		// live-byte accounting, and place them behind the summary.
		content := fs.assembly(1 + len(pl.bufs))[BlockSize:]
		refs := fs.flush.refs[:0]
		for i, b := range pl.bufs {
			na := base + addr.BlockNo(1+i)
			ino := fs.inodes[b.key.inum]
			if ino == nil {
				panic(fmt.Sprintf("lfs: dirty block (%d,%d) without in-memory inode", b.key.inum, b.key.lbn))
			}
			fs.setParentPtr(ino, b.key.lbn, na)
			fs.accountOld(b.addr, BlockSize)
			fs.accountNew(na, BlockSize)
			b.addr = na
			copy(content[i*BlockSize:], b.data)
			refs = append(refs, BlockRef{Inum: b.key.inum, Version: fs.imap[b.key.inum].Version, Lbn: b.key.lbn})
		}
		fs.flush.refs = refs
		image := fs.assembly(1 + len(pl.bufs) + pl.inoBlocks)
		if _, err := fs.writePseg(p, sum, image, false, base, base, refs, pl.inums); err != nil {
			return err
		}
		fs.stats.PartialSegs++
		fs.seguse[pl.seg].LastMod = now
		for _, b := range pl.bufs {
			fs.markClean(b)
		}
	}
	if haveNext {
		// Commit the pre-picked segment as the new log head; the last
		// written summary already threads to it.
		fs.advanceLog(nextSeg)
	}
	fs.stats.Flushes++
	fs.evictLocked()
	return nil
}

// writePseg is the one writer of a partial segment, in the log and in a
// staging segment alike. image holds the partial segment: the summary block,
// the content blocks refs names (Inum, Version, Lbn; in order), which the
// caller has placed behind it, and room for the inode blocks of inums; the
// caller has set sum's Next, Create, Serial and Flags. writePseg groups the
// blocks into FINFOs, serializes inums into the trailing inode blocks and
// re-points the inode map at them (an inode that does not load leaves its
// slot empty), checksums and encodes the summary, charges the assembly copy,
// writes the image at device address at — kept (Device.KeepBlocks) when keep
// is set, as a staging line's image is — and counts the summary block live in
// the segment of base, the summary's address: the same as at for the log, the
// tertiary address of a staging image written into its cache line. It returns
// how many inodes it wrote.
func (fs *FS) writePseg(p *sim.Proc, sum *Summary, image []byte, keep bool, at, base addr.BlockNo, refs []BlockRef, inums []uint32) (int, error) {
	inoBlocks := (len(inums) + InodesPerBlock - 1) / InodesPerBlock
	content := image[BlockSize:]
	if cap(fs.flush.lbns) < len(refs) {
		fs.flush.lbns = make([]int32, fs.amap.SegBlocks())
	}
	lbns := fs.flush.lbns[:len(refs)]
	for i, r := range refs {
		// A file's blocks are adjacent in refs, so its Lbns is a window of
		// lbns that grows by one.
		lbns[i] = r.Lbn
		if n := len(sum.Finfos); n > 0 && sum.Finfos[n-1].Inum == r.Inum {
			f := &sum.Finfos[n-1]
			f.Lbns = f.Lbns[:len(f.Lbns)+1]
		} else {
			sum.Finfos = append(sum.Finfos, Finfo{Inum: r.Inum, Version: r.Version, Lbns: lbns[i : i+1]})
		}
	}
	written := 0
	for ib := 0; ib < inoBlocks; ib++ {
		na := base + addr.BlockNo(1+len(refs)+ib)
		sum.InoAddrs = append(sum.InoAddrs, na)
		blkOff := (len(refs) + ib) * BlockSize
		clear(content[blkOff : blkOff+BlockSize]) // unused slots and inode padding are zero on media
		for s, inum := range inums[ib*InodesPerBlock : min(len(inums), (ib+1)*InodesPerBlock)] {
			ino, err := fs.iget(p, inum)
			if err != nil {
				continue
			}
			ino.encode(content[blkOff+s*InodeSize:])
			e := &fs.imap[inum]
			fs.accountOld(e.Addr, InodeSize)
			e.Addr, e.Slot = na, uint32(s)
			fs.accountNew(na, InodeSize)
			delete(fs.dirtyIno, inum) // the copy just written is authoritative
			written++
		}
	}
	sum.NBlocks = uint16(len(image) / BlockSize)
	sum.DataSum = crc32Sum(content)
	if err := encodeSummary(sum, image[:BlockSize]); err != nil {
		return written, err
	}
	fs.chargeCopy(p, len(image), fs.opts.AssemblyCopyRate)
	write := fs.dev.WriteBlocks
	if keep {
		write = fs.dev.KeepBlocks
	}
	if err := write(p, at, image); err != nil {
		return written, err
	}
	fs.stats.DevWrites++
	fs.stats.BytesWritten += int64(len(image))
	if su := fs.seguseFor(base); su != nil {
		su.LiveBytes += BlockSize // the summary block itself
		su.Flags |= SegDirty
	}
	return written, nil
}

// assembly returns the first nblocks blocks of the per-FS segment-sized
// assembly buffer of the log writer, contents arbitrary. A partial segment
// never exceeds a segment, and the lock serializes flushes; the buffer is
// handed to the device and is free again when WriteBlocks returns (BlockDev
// does not retain caller buffers). Migratev assembles in the staging line's
// image instead.
func (fs *FS) assembly(nblocks int) []byte {
	if fs.segImage == nil {
		fs.segImage = make([]byte, fs.amap.SegBlocks()*BlockSize)
	}
	return fs.segImage[:nblocks*BlockSize]
}

// pickSegment is the one scan for the log's next clean segment: the first
// after the log head, in disk order, that is not in chosen (the segments a
// flush has already planned into).
func (fs *FS) pickSegment(chosen map[addr.SegNo]bool) (addr.SegNo, error) {
	n := addr.SegNo(fs.amap.DiskSegs())
	for i := addr.SegNo(1); i <= n; i++ {
		s := (fs.curSeg + i) % n
		if fs.seguse[s].Flags == 0 && !chosen[s] {
			return s, nil
		}
	}
	return 0, ErrNoSpace
}

// advanceLog moves the log head to the start of seg, a clean segment; the
// segment it leaves holds log data.
func (fs *FS) advanceLog(seg addr.SegNo) {
	cur := &fs.seguse[fs.curSeg]
	cur.Flags &^= SegActive
	cur.Flags |= SegDirty
	nu := &fs.seguse[seg]
	if nu.Flags != 0 {
		panic(fmt.Sprintf("lfs: new log segment %d not clean (flags %#x)", seg, nu.Flags))
	}
	nu.Flags = SegActive
	fs.live[seg] = segLive{kept: true} // everything it held is dead: count afresh
	fs.nclean--
	fs.curSeg, fs.curOff = seg, 0
}
