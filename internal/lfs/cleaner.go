package lfs

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/sim"
)

// The cleaner garbage-collects free space: it selects dirty segments,
// copies their still-live blocks to the tail of the log, and marks the
// emptied segments clean (§3). In 4.4BSD LFS the cleaner is a user-level
// process speaking to the kernel through lfs_bmapv/lfs_markv; here the
// same operations are methods, and the cleaner daemon is a sim process.

// BlockRef names one block instance in the log: the file it belonged to,
// the file's inode version, its logical position, and the address it was
// found at. A ref is live (lfs_bmapv's test) iff the file still maps that
// lbn to that address.
type BlockRef struct {
	Inum    uint32
	Version uint32
	Lbn     int32
	Addr    addr.BlockNo
}

// InodeRef names one inode instance found in an inode block.
type InodeRef struct {
	Inum    uint32
	Version uint32
	Addr    addr.BlockNo
	Slot    uint32
}

func (fs *FS) refLiveLocked(p *sim.Proc, r BlockRef) (bool, error) {
	if int(r.Inum) >= len(fs.imap) {
		return false, nil
	}
	e := fs.imap[r.Inum]
	if e.Addr == addr.NilBlock || e.Version != r.Version {
		return false, nil
	}
	ino, err := fs.iget(p, r.Inum)
	if err != nil {
		return false, nil // inode vanished: not live
	}
	cur, err := fs.blockPtr(p, ino, r.Lbn)
	return err == nil && cur == r.Addr, nil
}

// SegmentContents describes a parsed on-media segment.
type SegmentContents struct {
	Seg     addr.SegNo
	Psegs   []*Summary
	Blocks  []BlockRef // every data/meta block instance with its address
	Inodes  []InodeRef // every inode instance
	Raw     []byte     // the whole segment image
	Offsets []int      // block offset of each pseg's summary
	// Torn is set when the walk ended on a summary that decodes but whose
	// extent or data checksum does not hold: the image was cut or damaged
	// there, as opposed to the chain simply ending.
	Torn bool
}

// ReadSegment reads and parses a whole segment (one large timed transfer —
// exactly what the cleaner and migrator do).
func (fs *FS) ReadSegment(p *sim.Proc, seg addr.SegNo) (*SegmentContents, error) {
	raw := make([]byte, fs.amap.SegBlocks()*BlockSize)
	if err := fs.dev.ReadBlocks(p, fs.amap.BlockOf(seg, 0), raw); err != nil {
		return nil, err
	}
	fs.stats.DevReads++
	fs.stats.BytesRead += int64(len(raw))
	return fs.ParseSegment(seg, raw), nil
}

// ParseSegment parses raw, a whole-segment image whose blocks are
// addressed in segment seg: a disk segment, or a cache line's copy of a
// tertiary one. It is the one walker of the partial-segment chain besides
// roll-forward. The walk stops at the first summary that does not decode,
// overruns the segment or fails its data checksum; what precedes it is
// intact. Media content is input: nothing in raw can make the walk index
// past it, and inode numbers the inode map cannot hold are dropped.
func (fs *FS) ParseSegment(seg addr.SegNo, raw []byte) *SegmentContents {
	sc := &SegmentContents{Seg: seg, Raw: raw}
	segBlocks := min(fs.amap.SegBlocks(), len(raw)/BlockSize)
	for off := 0; off < segBlocks; {
		sum, err := decodeSummary(raw[off*BlockSize : (off+1)*BlockSize])
		if err != nil {
			break // end of valid psegs in this segment
		}
		n := int(sum.NBlocks)
		if n < 1 || off+n > segBlocks || crc32Sum(raw[(off+1)*BlockSize:(off+n)*BlockSize]) != sum.DataSum {
			sc.Torn = true
			break
		}
		sc.Psegs = append(sc.Psegs, sum)
		sc.Offsets = append(sc.Offsets, off)
		base := fs.amap.BlockOf(seg, off)
		bi := 1 // block index within pseg (0 is the summary)
		for _, fi := range sum.Finfos {
			for _, lbn := range fi.Lbns {
				sc.Blocks = append(sc.Blocks, BlockRef{
					Inum:    fi.Inum,
					Version: fi.Version,
					Lbn:     lbn,
					Addr:    base + addr.BlockNo(bi),
				})
				bi++
			}
		}
		for _, ia := range sum.InoAddrs {
			idx := fs.amap.OffOf(ia)
			if fs.amap.SegOf(ia) != seg || idx >= segBlocks {
				continue
			}
			blk := raw[idx*BlockSize : (idx+1)*BlockSize]
			for slot := 0; slot < InodesPerBlock; slot++ {
				var ino dinode
				ino.decode(blk[slot*InodeSize:])
				if ino.Inum != 0 && int(ino.Inum) < len(fs.imap) {
					sc.Inodes = append(sc.Inodes, InodeRef{
						Inum:    ino.Inum,
						Version: ino.Version,
						Addr:    ia,
						Slot:    uint32(slot),
					})
				}
			}
		}
		off += n
	}
	return sc
}

// blockData returns the content of a block instance within a parsed
// segment.
func (sc *SegmentContents) blockData(amap *addr.Map, a addr.BlockNo) []byte {
	off := amap.OffOf(a)
	return sc.Raw[off*BlockSize : (off+1)*BlockSize]
}

// CleanSegment reclaims one dirty segment: live blocks are re-dirtied in
// the cache (relocating them at the next segment write, the lfs_markv
// mechanism) and live inodes re-marked. The caller must flush before the
// segment is reusable; CleanSegments does both.
func (fs *FS) cleanSegmentLocked(p *sim.Proc, seg addr.SegNo) (relocated int, err error) {
	su := &fs.seguse[seg]
	if su.Flags&SegDirty == 0 || su.Flags&(SegActive|SegCached|SegNoStore) != 0 {
		return 0, fmt.Errorf("lfs: segment %d not cleanable (flags %#x)", seg, su.Flags)
	}
	sc, err := fs.ReadSegment(p, seg)
	if err != nil {
		return 0, err
	}
	for _, r := range sc.Blocks {
		live, err := fs.refLiveLocked(p, r)
		if err != nil {
			return relocated, err
		}
		if !live {
			continue
		}
		// Skip if a dirty (newer) copy is already in the cache.
		if b, ok := fs.bufs[bufKey{r.Inum, r.Lbn}]; ok {
			fs.markDirty(b)
		} else {
			data := fs.newBlock()
			copy(data, sc.blockData(fs.amap, r.Addr))
			nb := fs.insertBuf(r.Inum, r.Lbn, data, r.Addr, false)
			fs.markDirty(nb)
		}
		relocated++
	}
	for _, ir := range sc.Inodes {
		e := fs.imap[ir.Inum]
		if e.Addr == ir.Addr && e.Slot == ir.Slot && e.Version == ir.Version {
			ino, err := fs.iget(p, ir.Inum)
			if err != nil {
				continue
			}
			fs.markInodeDirty(ino)
			relocated++
		}
	}
	fs.stats.BlocksRelocated += int64(relocated)
	return relocated, nil
}

// markCleanLocked queues a reclaimed segment for return to the clean
// pool. The segment keeps its dirty flag — and stays unallocatable —
// until the next checkpoint commits it (commitCleanedLocked): the last
// durable checkpoint's tables still hold pointers into the segment, so
// reusing it before a new checkpoint lands would let a crash recover
// into overwritten data.
func (fs *FS) markCleanLocked(seg addr.SegNo) {
	if fs.pendingCleanSet == nil {
		fs.pendingCleanSet = make(map[addr.SegNo]bool)
	}
	if fs.pendingCleanSet[seg] {
		return
	}
	fs.pendingCleanSet[seg] = true
	fs.pendingClean = append(fs.pendingClean, seg)
	fs.stats.SegsCleaned++
}

// CleanSegments cleans the given segments: relocates live data, flushes,
// and marks them clean. It returns the number of blocks relocated.
func (fs *FS) CleanSegments(p *sim.Proc, segs []addr.SegNo) (int, error) {
	fs.lock.Acquire(p)
	defer fs.unlock(p)
	return fs.cleanSegmentsLocked(p, segs)
}

func (fs *FS) cleanSegmentsLocked(p *sim.Proc, segs []addr.SegNo) (int, error) {
	total := 0
	for _, seg := range segs {
		n, err := fs.cleanSegmentLocked(p, seg)
		if err != nil {
			return total, err
		}
		total += n
	}
	if err := fs.flushLocked(p, false); err != nil {
		return total, err
	}
	for _, seg := range segs {
		fs.markCleanLocked(seg)
	}
	// Commit the reclaimed segments with a table checkpoint (no further
	// flush needed: the relocation was just flushed, and table updates
	// happen at write time, so the in-memory tables describe the media).
	// This is what makes the cleaned segments allocatable again — see
	// markCleanLocked.
	if len(fs.pendingClean) > 0 {
		if err := fs.writeCheckpointLocked(p); err != nil {
			return total, err
		}
	}
	return total, nil
}

// SelectCleanable ranks dirty segments for cleaning. Following Sprite/BSD
// LFS, segments are ordered by a cost-benefit ratio — free space gained
// times age over cost — with a pure least-live fallback for young file
// systems.
func (fs *FS) SelectCleanable(max int) []addr.SegNo {
	segBytes := uint32(fs.amap.SegBlocks() * BlockSize)
	now := fs.now()
	return fs.rankCleanable(max, func(su *Seguse) float64 {
		u := float64(min(su.LiveBytes, segBytes)) / float64(segBytes)
		age := float64(now-su.LastMod) + 1
		return (1 - u) * age / (1 + u)
	})
}

// rankCleanable is the one eligibility filter of the cleaner's choice: the
// dirty log segments that are not the log head, a cache line or retired,
// not already cleaned and awaiting their checkpoint, and not reserved by a
// migration stream. It returns up to max of them (0: all), highest score
// first.
func (fs *FS) rankCleanable(max int, score func(*Seguse) float64) []addr.SegNo {
	type cand struct {
		seg   addr.SegNo
		score float64
	}
	var cands []cand
	for i := range fs.seguse {
		su, seg := &fs.seguse[i], addr.SegNo(i)
		if su.Flags&SegDirty == 0 || su.Flags&(SegActive|SegCached|SegNoStore) != 0 || fs.pendingCleanSet[seg] || fs.migrateBusy[seg] {
			continue
		}
		cands = append(cands, cand{seg, score(su)})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	if max > 0 && len(cands) > max {
		cands = cands[:max]
	}
	out := make([]addr.SegNo, len(cands))
	for i, c := range cands {
		out[i] = c.seg
	}
	return out
}

// ReserveSegments marks segments as owned by an in-flight migration
// stream: SelectCleanable and selectLeastLive skip them until
// ReleaseSegments, so a concurrently running cleaner and migrator operate
// on disjoint segment sets. Reservations are advisory (they only steer
// the cleaner's choice) and need no lock beyond the caller already
// running inside the simulation kernel.
func (fs *FS) ReserveSegments(segs []addr.SegNo) {
	if fs.migrateBusy == nil {
		fs.migrateBusy = make(map[addr.SegNo]bool)
	}
	for _, s := range segs {
		fs.migrateBusy[s] = true
	}
}

// ReleaseSegments drops reservations made by ReserveSegments.
func (fs *FS) ReleaseSegments(segs []addr.SegNo) {
	for _, s := range segs {
		delete(fs.migrateBusy, s)
	}
}

// cleanerReserve is the number of clean segments normal writes may not
// consume: the cleaner needs headroom to copy live data forward. Without a
// reserve a full disk deadlocks (cleaning itself requires free segments).
const cleanerReserve = 3

// selectLeastLive ranks dirty segments purely by live bytes, fewest first
// — the emergency choice, minimizing the data the cleaner must relocate.
func (fs *FS) selectLeastLive(max int) []addr.SegNo {
	return fs.rankCleanable(max, func(su *Seguse) float64 { return -float64(su.LiveBytes) })
}

// AttachCleaner wires a synchronous emergency cleaner into the allocator
// and returns a function suitable for running as a cleaner daemon: it
// keeps the number of clean segments between low and high water marks.
func (fs *FS) AttachCleaner(low, high int) func(p *sim.Proc) {
	fs.EmergencyClean = func(p *sim.Proc) bool {
		// Lock already held by the allocator's caller. Clean one
		// segment at a time, least live data first, so relocation
		// pressure on the (scarce) clean pool stays minimal.
		segs := fs.selectLeastLive(1)
		if len(segs) == 0 {
			return false
		}
		// Success means one more segment was reclaimed (and, as a side
		// effect, the inner flush drained all dirty data); each failure
		// or exhaustion of cleanable segments stops the retry loop.
		_, err := fs.cleanSegmentsLocked(p, segs)
		return err == nil
	}
	return func(p *sim.Proc) {
		for {
			p.Sleep(cleanerPollInterval)
			if fs.CleanSegs() >= low {
				continue
			}
			for fs.CleanSegs() < high {
				segs := fs.SelectCleanable(4)
				if len(segs) == 0 {
					break
				}
				if _, err := fs.CleanSegments(p, segs); err != nil {
					break
				}
			}
		}
	}
}

const cleanerPollInterval = 1e9 // 1 virtual second
