package lfs

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/sim"
)

// On-line storage reconfiguration (§6.4): "If a need arises for more disk
// storage, it is possible to initialize a new disk with empty segments and
// adjust the file system superblock parameters and ifile to incorporate
// the added disk capacity. If it is necessary to remove a disk from
// service, its segments can all be cleaned (so that the data are copied to
// another disk) and marked as having no storage." The paper lists the tool
// for this as future work (§10); here it is.

// CanGrow reports whether the checkpoint table region has room for n more
// disk segments' usage entries (format reserves headroom for twice the
// initial disk size, tableBlocks).
func (fs *FS) CanGrow(n int) error {
	grown := len(fs.seguse) + n
	need := 1 + blocksFor(grown*seguseSize) + blocksFor(len(fs.tseg)*seguseSize) + blocksFor(len(fs.imap)*imapSize)
	if need > int(fs.sb.TableBlocks) {
		return fmt.Errorf("lfs: growing to %d segments needs %d table blocks, region holds %d",
			grown, need, fs.sb.TableBlocks)
	}
	return nil
}

// GrowDisk extends the file system by n freshly initialized segments. The
// caller must already have extended the device and the address map so that
// the new segments are readable and classified as disk segments.
func (fs *FS) GrowDisk(p *sim.Proc, n int) error {
	fs.lock.Acquire(p)
	defer fs.lock.Release(p)
	if err := fs.CanGrow(n); err != nil {
		return err
	}
	if fs.amap.DiskSegs() != len(fs.seguse)+n {
		return fmt.Errorf("lfs: address map has %d disk segments, expected %d after growth",
			fs.amap.DiskSegs(), len(fs.seguse)+n)
	}
	fs.seguse = append(fs.seguse, make([]Seguse, n)...)
	fs.nclean += n
	fs.sb.DiskSegs = uint32(len(fs.seguse))
	blk := make([]byte, BlockSize)
	fs.sb.encode(blk)
	if err := fs.dev.WriteBlocks(p, fs.amap.BlockOf(0, 0), blk); err != nil {
		return err
	}
	return fs.checkpointLocked(p)
}

// RetireSegments takes the disk segments [lo, hi) out of service: live
// data are cleaned forward onto other segments and the range is marked as
// having no storage. Cached tertiary lines in the range must be ejected by
// the caller first; staging lines make the call fail.
func (fs *FS) RetireSegments(p *sim.Proc, lo, hi addr.SegNo) error {
	fs.lock.Acquire(p)
	defer fs.lock.Release(p)
	if int(lo) < int(fs.sb.ReservedSegs) || int64(hi) > int64(len(fs.seguse)) || lo >= hi {
		return fmt.Errorf("lfs: retire range [%d,%d) invalid", lo, hi)
	}
	for s := lo; s < hi; s++ {
		if fs.seguse[s].Flags&SegCached != 0 {
			return fmt.Errorf("lfs: segment %d still caches tertiary segment %d; eject it first", s, fs.seguse[s].CacheTag)
		}
	}
	// Freeze the clean segments first so neither the log nor the cache
	// allocates into the doomed range while we clean.
	for s := lo; s < hi; s++ {
		if fs.seguse[s].Flags == 0 {
			fs.seguse[s].Flags = SegNoStore
			fs.nclean--
		}
	}
	// Move the log tail out of the range.
	if fs.curSeg >= lo && fs.curSeg < hi {
		next, err := fs.pickSegment(nil)
		if err != nil && fs.EmergencyClean != nil && fs.EmergencyClean(p) {
			next, err = fs.pickSegment(nil)
		}
		if err != nil {
			return err
		}
		fs.advanceLog(next)
	}
	// Clean the dirty segments (copies live data to segments outside the
	// range, since everything inside is frozen).
	for s := lo; s < hi; s++ {
		if fs.seguse[s].Flags&SegDirty == 0 {
			continue
		}
		if _, err := fs.cleanSegmentLocked(p, s); err != nil {
			return err
		}
	}
	if err := fs.flushLocked(p, false); err != nil {
		return err
	}
	for s := lo; s < hi; s++ {
		fs.seguse[s].Flags = SegNoStore
		fs.seguse[s].LiveBytes = 0
		fs.seguse[s].CacheTag = 0
	}
	return fs.checkpointLocked(p)
}
