package core

import (
	"fmt"

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
