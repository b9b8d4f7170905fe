package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// On-line storage reconfiguration (§6.4 / §10): disks can join and leave
// the farm while the file system is mounted.

// AddDisk appends a disk to the farm: its blocks claim part of the dead
// zone, its segments are initialized clean, and the log can use them
// immediately. Returns the number of segments added.
func (hl *HighLight) AddDisk(p *sim.Proc, d dev.BlockDev) (int, error) {
	segs := int(d.NumBlocks()) / hl.Amap.SegBlocks()
	if segs < 1 {
		return 0, fmt.Errorf("core: disk too small for even one segment")
	}
	if err := hl.FS.CanGrow(segs); err != nil {
		return 0, err
	}
	if _, err := hl.Disk.Append(d); err != nil {
		return 0, fmt.Errorf("core: on-line growth requires a concatenated farm: %w", err)
	}
	hl.Amap.GrowDisk(segs) // panics only if regions collide; CanGrow ran first
	if err := hl.FS.GrowDisk(p, segs); err != nil {
		return 0, err
	}
	return segs, nil
}

// RetireDiskRange takes the disk segments [lo, hi) out of service so the
// underlying spindle can be removed: cached tertiary lines in the range
// are ejected (their tertiary copies remain), live log data are cleaned
// forward, and the segments are marked as having no storage.
func (hl *HighLight) RetireDiskRange(p *sim.Proc, lo, hi addr.SegNo) error {
	// Evict cache lines living in the range. Staging lines hold the sole
	// copy of migrated data; drain copyouts so none remain.
	hl.finishStaging(p)
	hl.FlushCopyouts(p)
	hl.Svc.DrainCopyouts(p)
	for _, l := range hl.Cache.Lines() {
		if l.DiskSeg < lo || l.DiskSeg >= hi {
			continue
		}
		if l.Staging || l.Pins > 0 {
			return fmt.Errorf("core: cache line for tertiary segment %d in segment %d is busy", l.Tag, l.DiskSeg)
		}
		if err := hl.Svc.Eject(l.Tag); err != nil {
			return err
		}
	}
	// Pool segments (unbound cache lines) in the range leave the cache and
	// give their claim back.
	for _, s := range hl.Cache.Shrink(lo, hi) {
		hl.FS.ReleaseCacheSegment(p, s)
	}
	return hl.FS.RetireSegments(p, lo, hi)
}

// ComponentRange reports the disk-segment range [lo, hi) served by farm
// component i, for use with RetireDiskRange. Only a concatenated farm maps
// components to contiguous segment ranges; for an interleaved farm the
// range is empty.
func (hl *HighLight) ComponentRange(i int) (lo, hi addr.SegNo) {
	if hl.Disk.StripeUnit() > 0 {
		return 0, 0
	}
	d, start := hl.Disk.Component(i)
	lo = addr.SegNo(start / int64(hl.Amap.SegBlocks()))
	hi = lo + addr.SegNo(d.NumBlocks()/int64(hl.Amap.SegBlocks()))
	return lo, hi
}
