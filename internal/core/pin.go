package core

// HSM pin enforcement. Pins arrive from the internal/hsm service surface at
// two granularities:
//
//   - Segment pins keep a tertiary segment's cached copy resident: the cache
//     evictor skips it (cache.Cache.Locked), Eject refuses it, and the
//     tertiary cleaner will not select its volume. The in-memory state is a
//     refcount (several pinned files may share a segment); the 0↔1 edges are
//     mirrored into the checkpointed tsegfile as lfs.SegPinned, so pins ride
//     the same durability path as every other segment state and survive a
//     crash. Between a post-crash mount and the HSM layer re-deriving its
//     refcounts, the persisted flag alone keeps the guards active.
//
//   - Inode pins keep a file's disk-resident blocks on disk: migration
//     policies and MigrateFiles skip pinned inodes, so a pinned file is
//     never staged out to tertiary storage.
//
// The registries live on HighLight rather than in internal/hsm so the
// enforcement points (cache, cleaner, migrator) need no upward dependency.

// PinSegment takes one pin reference on tertiary segment tag. The first
// reference marks the segment pinned in the checkpointed tertiary usage
// table (durable after the next checkpoint).
func (hl *HighLight) PinSegment(tag int) {
	if hl.pinnedSegs == nil {
		hl.pinnedSegs = make(map[int]int)
	}
	hl.pinnedSegs[tag]++
	if hl.pinnedSegs[tag] == 1 {
		hl.FS.MarkTsegPinned(tag)
	}
}

// UnpinSegment drops one pin reference from tertiary segment tag. The last
// reference clears the persisted pin flag. Unpinning an unpinned segment is
// a no-op (the HSM layer validates request state before calling down).
func (hl *HighLight) UnpinSegment(tag int) {
	n, ok := hl.pinnedSegs[tag]
	if !ok {
		// No in-memory reference: clear a stale persisted flag (e.g. a
		// crash-recovered pin the HSM layer decided not to re-adopt).
		hl.FS.ClearTsegPinned(tag)
		return
	}
	if n <= 1 {
		delete(hl.pinnedSegs, tag)
		hl.FS.ClearTsegPinned(tag)
		return
	}
	hl.pinnedSegs[tag] = n - 1
}

// SegmentPinned reports whether tertiary segment tag is HSM-pinned, by
// in-memory refcount or by the persisted flag (authoritative between a
// crash-recovery mount and HSM re-attachment).
func (hl *HighLight) SegmentPinned(tag int) bool {
	if hl.pinnedSegs[tag] > 0 {
		return true
	}
	return tag >= 0 && tag < hl.FS.TsegCount() && hl.FS.TsegPinned(tag)
}

// PinInode takes one pin reference on an inode: migration policies and
// MigrateFiles refuse to stage a pinned file's blocks out to tertiary
// storage.
func (hl *HighLight) PinInode(inum uint32) {
	if hl.pinnedInodes == nil {
		hl.pinnedInodes = make(map[uint32]int)
	}
	hl.pinnedInodes[inum]++
}

// UnpinInode drops one pin reference from an inode.
func (hl *HighLight) UnpinInode(inum uint32) {
	n, ok := hl.pinnedInodes[inum]
	if !ok {
		return
	}
	if n <= 1 {
		delete(hl.pinnedInodes, inum)
		return
	}
	hl.pinnedInodes[inum] = n - 1
}

// InodePinned reports whether the inode carries an HSM pin.
func (hl *HighLight) InodePinned(inum uint32) bool { return hl.pinnedInodes[inum] > 0 }
