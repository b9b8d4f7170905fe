package lfs

import (
	"fmt"

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
	defer fs.unlock(p)
	if err := fs.CanGrow(n); err != nil {
		return err
	}
	if fs.amap.DiskSegs() != len(fs.seguse)+n {
		return fmt.Errorf("lfs: address map has %d disk segments, expected %d after growth",
			fs.amap.DiskSegs(), len(fs.seguse)+n)
	}
	fs.seguse = append(fs.seguse, make([]Seguse, n)...)
	for range n {
		fs.live = append(fs.live, segLive{kept: true, discarded: true})
	}
	fs.nclean += n
	fs.sb.DiskSegs = uint32(len(fs.seguse))
	blk := make([]byte, BlockSize)
	fs.sb.encode(blk)
	if err := fs.dev.WriteBlocks(p, fs.amap.BlockOf(0, 0), blk); err != nil {
		return err
	}
	return fs.checkpointLocked(p)
}
