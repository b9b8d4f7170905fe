package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Migration mechanism (§6.2): to-be-migrated blocks are assembled into a
// staging segment — a dirty cache line addressed with the block numbers
// the segment will use on the tertiary volume. When the staging segment
// fills, the service process copies the whole 1 MB segment to tertiary
// storage, either immediately or in a delayed batch (§5.4).

// ErrNoTertiarySpace is returned when every tertiary segment has been
// consumed (the paper's future-work tertiary cleaner reclaims media).
var ErrNoTertiarySpace = errors.New("core: tertiary storage exhausted")

// ensureStaging makes sure a staging segment is open, allocating the next
// tertiary segment and a cache line for its assembly.
func (hl *HighLight) ensureStaging(p *sim.Proc) error {
	if hl.stageTag >= 0 {
		return nil
	}
	tag, terr := hl.allocTertTag()
	if terr != nil {
		return terr
	}
	var seg addr.SegNo
	for {
		var ok bool
		seg, ok = hl.Cache.TakeFree()
		if ok {
			break
		}
		if v := hl.Cache.Victim(); v != nil {
			var err error
			seg, err = hl.Cache.Evict(v)
			if err != nil {
				return fmt.Errorf("core: evicting cache victim for staging: %w", err)
			}
			break
		}
		// Every line is pinned or still staging: wait for an in-flight
		// copyout to finish or a reader to let go of its line, and retry.
		if hl.Svc.WaitCopyoutProgress(p) {
			continue
		}
		if len(hl.delayed) == 0 {
			return fmt.Errorf("core: no cache line available for staging (all pinned or staging)")
		}
		// Delayed copyouts are holding every line; write them out now (the
		// "no idle period arises" fallback, §5.4).
		hl.FlushCopyouts(p)
	}
	if _, err := hl.Cache.Insert(tag, seg, true, p.Now()); err != nil {
		return fmt.Errorf("core: opening staging segment: %w", err)
	}
	// Make the staging binding durable before any migrated block lands in
	// the line: after a crash, recovery finds the sole copy of staged data
	// through the checkpointed cache directory, so the directory must
	// never lag behind the staged contents it names. Tables only — a full
	// checkpoint would flush the dirty flipped metadata of the batch in
	// progress, relocating blocks whose refs the migrator already captured.
	if err := hl.FS.CheckpointTables(p); err != nil {
		return err
	}
	hl.stageTag = tag
	hl.stageSeg = seg
	hl.stageOff = 0
	hl.nextTert = tag + 1
	if hl.stageImg == nil { // an empty line closed with its image kept
		hl.stageImg = make([]byte, hl.Amap.SegBlocks()*lfs.BlockSize)
	}
	hl.Obs.Instant("core", "stage.open", "open",
		obs.Arg{Key: "tag", Val: int64(tag)}, obs.Arg{Key: "seg", Val: int64(seg)})
	return nil
}

// finishStaging closes the current staging segment, if one is open.
func (hl *HighLight) finishStaging(p *sim.Proc) error {
	hl.staging.Acquire(p)
	defer hl.staging.Release(p)
	return hl.closeStaging(p)
}

// closeStaging closes the current staging segment and schedules (or
// defers) its copy — and its replicas, if configured — to tertiary
// storage. The caller holds hl.staging.
func (hl *HighLight) closeStaging(p *sim.Proc) error {
	if hl.stageTag < 0 {
		return nil
	}
	if hl.stageOff == 0 {
		// Nothing was staged (e.g. every candidate block turned out
		// dead): release the line and the tertiary segment instead of
		// copying out an empty image.
		if l, ok := hl.Cache.Peek(hl.stageTag); ok {
			hl.Cache.Unstage(l)
			seg, err := hl.Cache.Evict(l)
			if err != nil {
				return fmt.Errorf("core: dropping empty staging line: %w", err)
			}
			hl.Cache.Release(seg)
		}
		hl.FS.ResetTseg(hl.stageTag)
		if hl.stageTag < hl.nextTert {
			hl.nextTert = hl.stageTag
		}
		hl.stageTag = -1
		return nil
	}
	dests := []int{hl.stageTag}
	for r := 1; r < hl.Replicas; r++ {
		rtag, ok := hl.allocReplicaTag(hl.stageTag)
		if !ok {
			break // no room on another volume: fewer replicas, not an error
		}
		hl.replicaOf[hl.stageTag] = append(hl.replicaOf[hl.stageTag], rtag)
		hl.replicaTag[rtag] = hl.stageTag
		dests = append(dests, rtag)
	}
	// The image goes with the line: the disk may hold its staged extents, and
	// the copy-out reads the line back into it for the changer to keep.
	img := hl.stageImg
	hl.stageImg = nil
	if hl.DelayCopyouts {
		// A copy, so that dests stays on the stack on the path taken at once.
		hl.delayed = append(hl.delayed, stagedLine{hl.stageSeg, hl.stageTag, slices.Clone(dests), img})
	} else {
		hl.Svc.ScheduleCopyouts(p, hl.stageSeg, img, hl.stageTag, dests...)
	}
	hl.Obs.Instant("core", "stage.close", "close",
		obs.Arg{Key: "tag", Val: int64(hl.stageTag)}, obs.Arg{Key: "blocks", Val: int64(hl.stageOff)})
	hl.Heat.Touch(hl.stageTag, attr.Stage, p.Now())
	hl.Audit.Record(attr.Decision{
		T: p.Now(), Actor: "stage", Subject: fmt.Sprintf("seg:%d", hl.stageTag),
		Seg: hl.stageTag, Verdict: attr.VerdictStaged,
		Inputs: []attr.Input{
			attr.In("blocks", float64(hl.stageOff)),
			attr.In("replicas", float64(len(dests)-1)),
		},
	})
	hl.stageTag = -1
	return nil
}

// tsegEmpty reports whether tertiary segment tag can take data: never used,
// not reserved (no-store), no live bytes, and not still cached. Whether its
// library is in service is the caller's question.
func (hl *HighLight) tsegEmpty(tag int) bool {
	su := hl.FS.TsegUsage(tag)
	if su.Flags != 0 || su.LiveBytes != 0 {
		return false
	}
	_, cached := hl.Cache.Peek(tag)
	return !cached
}

// tagFree reports whether tertiary segment tag can take a new staging
// image: empty, and its library in service.
func (hl *HighLight) tagFree(tag int) bool { return hl.tsegEmpty(tag) && !hl.tagLibDown(tag) }

// allocTertTag picks the tertiary segment the next staging line copies
// out to.
//
// The default is the historical scan for the first free tag at or after
// nextTert. After a volume clean rewinds the cursor, in-use (dirty),
// reserved (no-store, e.g. replicas and retired volume tails) and
// still-cached indices must all be skipped, not just no-store ones.
//
// With VolStripe > 1 allocation instead rotates across that many volumes
// of the first library, one segment per volume per turn: consecutive
// staging segments land on different cartridges, so concurrent copy-out
// streams keep several changer drives busy instead of serializing on one
// loaded volume — striping the migration log across media, the tertiary
// analogue of the disk farm's block interleave.
func (hl *HighLight) allocTertTag() (int, error) {
	if hl.VolStripe > 1 {
		devs := hl.Amap.Devices()
		nv := hl.VolStripe
		if nv > devs[0].Vols {
			nv = devs[0].Vols
		}
		for i := 0; i < nv; i++ {
			v := (hl.stripeVol + i) % nv
			base, ok := hl.Amap.TertIndex(hl.Amap.SegForLoc(0, v, 0))
			if !ok {
				continue
			}
			for s := 0; s < devs[0].SegsPerVol; s++ {
				if tag := base + s; hl.tagFree(tag) {
					hl.stripeVol = (v + 1) % nv
					return tag, nil
				}
			}
		}
		// The striped volumes are full: take anything left anywhere.
		for tag := 0; tag < hl.FS.TsegCount(); tag++ {
			if hl.tagFree(tag) {
				return tag, nil
			}
		}
		return 0, ErrNoTertiarySpace
	}
	tag := hl.nextTert
	for tag < hl.FS.TsegCount() && !hl.tagFree(tag) {
		tag++
	}
	if tag >= hl.FS.TsegCount() {
		return 0, ErrNoTertiarySpace
	}
	return tag, nil
}

// allocReplicaTag finds a free tertiary segment for a replica of primary
// and reserves it (no-storage in the tsegfile, so the regular allocator
// skips it and it is never counted live — §5.4's bookkeeping sidestep).
// With several libraries the copy is spread across failure domains: it
// goes to the healthy library with the most free segments that holds
// neither the primary nor an existing replica. When no such library
// exists (single changer, or every other domain down/full) placement
// falls back to the original intra-library rule — any free segment on a
// different volume than the primary.
func (hl *HighLight) allocReplicaTag(primary int) (int, bool) {
	if len(hl.libs) > 1 {
		if idx, ok := hl.allocCrossLibrary(primary); ok {
			return idx, true
		}
	}
	// No copy of a segment may share a medium with another: exclude the
	// primary's volume and every existing replica's volume.
	type volKey struct{ d, v int }
	avoid := make(map[volKey]bool)
	pd, pv, _, _ := hl.Amap.Loc(hl.Amap.SegForIndex(primary))
	avoid[volKey{pd, pv}] = true
	for _, r := range hl.replicaOf[primary] {
		if rd, rv, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(r)); ok {
			avoid[volKey{rd, rv}] = true
		}
	}
	for idx := 0; idx < hl.FS.TsegCount(); idx++ {
		if !hl.tsegEmpty(idx) {
			continue
		}
		d, v, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(idx))
		if !ok || avoid[volKey{d, v}] {
			continue
		}
		if hl.libs[d].Down() {
			continue
		}
		hl.FS.MarkTsegNoStore(idx)
		hl.Audit.Record(attr.Decision{
			T: hl.K.Now(), Actor: "placement", Subject: fmt.Sprintf("seg:%d", idx),
			Seg: primary, Verdict: attr.VerdictPlaced, Reason: "intra-library",
			Inputs: []attr.Input{attr.In("replica", float64(idx)), attr.In("dev", float64(d))},
		})
		return idx, true
	}
	return 0, false
}

// allocCrossLibrary places a replica of primary in a failure domain that
// holds no copy yet: the healthy library with the most free segments
// wins (ties to the lowest device index), and the replica takes that
// library's first free segment.
func (hl *HighLight) allocCrossLibrary(primary int) (int, bool) {
	used := make(map[int]bool)
	if pd, _, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(primary)); ok {
		used[pd] = true
	}
	for _, r := range hl.replicaOf[primary] {
		if d, _, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(r)); ok {
			used[d] = true
		}
	}
	bestDev, bestFree, bestIdx := -1, 0, -1
	for d := range hl.libs {
		if used[d] || hl.libs[d].Down() {
			continue
		}
		free, first := hl.freeTsegsOnDevice(d)
		if first >= 0 && free > bestFree {
			bestDev, bestFree, bestIdx = d, free, first
		}
	}
	if bestDev < 0 {
		return 0, false
	}
	hl.FS.MarkTsegNoStore(bestIdx)
	hl.Audit.Record(attr.Decision{
		T: hl.K.Now(), Actor: "placement", Subject: fmt.Sprintf("seg:%d", bestIdx),
		Seg: primary, Verdict: attr.VerdictPlaced, Reason: "cross-library",
		Inputs: []attr.Input{
			attr.In("replica", float64(bestIdx)),
			attr.In("dev", float64(bestDev)),
			attr.In("free", float64(bestFree)),
		},
	})
	return bestIdx, true
}

// tagLibDown reports whether tag's library is out of service.
func (hl *HighLight) tagLibDown(tag int) bool {
	d, _, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(tag))
	return ok && hl.libs[d].Down()
}

// deviceTsegRange returns the dense tertiary-index range [start, start+n)
// device d's segments occupy (devices are laid out in order).
func (hl *HighLight) deviceTsegRange(d int) (start, n int) {
	devs := hl.Amap.Devices()
	for i := 0; i < d; i++ {
		start += devs[i].Vols * devs[i].SegsPerVol
	}
	return start, devs[d].Vols * devs[d].SegsPerVol
}

// freeTsegsOnDevice counts device d's allocatable tertiary segments and
// returns the first one (-1 when the device is full).
func (hl *HighLight) freeTsegsOnDevice(d int) (free, first int) {
	start, n := hl.deviceTsegRange(d)
	first = -1
	end := start + n
	if end > hl.FS.TsegCount() {
		end = hl.FS.TsegCount()
	}
	for idx := start; idx < end; idx++ {
		if !hl.tsegEmpty(idx) {
			continue
		}
		if first < 0 {
			first = idx
		}
		free++
	}
	return free, first
}

// FlushCopyouts schedules every delayed copyout (the "later idle period"
// write of §5.4).
func (hl *HighLight) FlushCopyouts(p *sim.Proc) {
	for _, l := range hl.delayed {
		hl.Svc.ScheduleCopyouts(p, l.seg, l.img, l.tag, l.dests...)
	}
	hl.delayed = nil
}

// stage appends refs, or the inodes inums, to the staging segment, opening
// one if none is open and closing it if that filled it. hl.staging makes the
// three steps one: MigrateFiles has several callers (the migrator daemon,
// the tertiary cleaner, direct calls), every step can block, and a second
// caller let in between them would stage at the offset the first is writing.
func (hl *HighLight) stage(p *sim.Proc, refs []lfs.BlockRef, inums []uint32) (*lfs.MigrateResult, error) {
	hl.staging.Acquire(p)
	defer hl.staging.Release(p)
	if err := hl.ensureStaging(p); err != nil {
		return nil, err
	}
	res, err := hl.FS.Migratev(p, refs, inums, hl.Amap.SegForIndex(hl.stageTag), hl.stageSeg, hl.stageOff, hl.stageImg)
	if err != nil {
		return nil, err
	}
	hl.stageOff = res.NextOff
	if res.Full {
		err = hl.closeStaging(p)
	}
	return res, err
}

// MigrateRefs stages the given block refs (already located via
// FileBlockRefs) to tertiary storage, opening and closing staging
// segments as needed. It returns the bytes staged.
func (hl *HighLight) MigrateRefs(p *sim.Proc, refs []lfs.BlockRef) (int64, error) {
	var staged int64
	for len(refs) > 0 {
		// The stage-layer cancellation point: a canceled or expired
		// request stops between staging chunks, never mid-chunk, so the
		// open staging segment and every scheduled copyout stay
		// consistent (CompleteMigration later closes them normally).
		if err := p.CtxErr(); err != nil {
			return staged, err
		}
		res, err := hl.stage(p, refs, nil)
		if res != nil {
			staged += int64(res.Blocks) * lfs.BlockSize
			refs = refs[res.Consumed:]
		}
		if err != nil {
			return staged, err
		}
		if !res.Full && res.Consumed == 0 {
			return staged, fmt.Errorf("core: staging made no progress at segment %d", hl.stageTag)
		}
	}
	return staged, nil
}

// stageInodes stages a batch of inodes into the staging segment.
func (hl *HighLight) stageInodes(p *sim.Proc, inums []uint32) error {
	for len(inums) > 0 {
		res, err := hl.stage(p, nil, inums)
		if err != nil {
			return err
		}
		inums = inums[res.InodesMoved:]
	}
	return nil
}

// MigrateFiles migrates whole files — every data and indirect block, and
// (when migrateInodes is set) the inodes themselves — to tertiary storage.
// The files' dirty state is synced first so every block is stable.
func (hl *HighLight) MigrateFiles(p *sim.Proc, inums []uint32, migrateInodes bool) (int64, error) {
	t0 := p.Now()
	var staged int64
	defer func() {
		hl.Obs.Span("core", "core.migrate", "MigrateFiles", t0,
			obs.Arg{Key: "files", Val: int64(len(inums))}, obs.Arg{Key: "staged", Val: staged})
	}()
	if err := hl.FS.Sync(p); err != nil {
		return 0, err
	}
	var inodeBatch []uint32
	for _, inum := range inums {
		if err := p.CtxErr(); err != nil {
			return staged, err // canceled between files; staged work stands
		}
		refs, err := hl.FS.FileBlockRefs(p, inum)
		if err != nil {
			return staged, err
		}
		// Skip blocks already on tertiary storage; only the tertiary
		// cleaner re-stages them (RestageTertSegment).
		kept := refs[:0]
		for _, r := range refs {
			if hl.Amap.IsDiskSeg(hl.Amap.SegOf(r.Addr)) {
				kept = append(kept, r)
			}
		}
		refs = kept
		if len(refs) == 0 {
			continue
		}
		n, err := hl.MigrateRefs(p, refs)
		staged += n
		if err != nil {
			return staged, err
		}
		// Seg is the staging segment still open after this file's blocks
		// landed (-1 if the file exactly filled a segment); large files
		// span several segments, each audited by its own "staged" record.
		hl.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "migrator", Subject: fmt.Sprintf("inode:%d", inum),
			Seg: hl.stageTag, Verdict: attr.VerdictStaged,
			Inputs: []attr.Input{attr.In("bytes", float64(n))},
		})
		if migrateInodes {
			inodeBatch = append(inodeBatch, inum)
			if len(inodeBatch) >= lfs.InodesPerBlock {
				if err := hl.stageInodes(p, inodeBatch); err != nil {
					return staged, err
				}
				inodeBatch = nil
			}
		}
	}
	if len(inodeBatch) > 0 {
		if err := hl.stageInodes(p, inodeBatch); err != nil {
			return staged, err
		}
	}
	return staged, nil
}

// CompleteMigration closes the open staging segment, flushes delayed
// copyouts, waits for the tertiary writes, handles end-of-medium retries
// (re-staging partial segments onto the next volume, §6.3) and
// unrecoverable write errors (retiring the bad segment and re-staging its
// contents onto fresh media), and checkpoints so the new bindings are
// durable.
func (hl *HighLight) CompleteMigration(p *sim.Proc) error {
	t0 := p.Now()
	defer func() {
		hl.Obs.Span("core", "core.migrate", "CompleteMigration", t0)
	}()
	if err := hl.finishStaging(p); err != nil {
		return err
	}
	hl.FlushCopyouts(p)
	if err := hl.drainCopyoutFailures(p); err != nil {
		return err
	}
	return hl.FS.Checkpoint(p)
}

// drainCopyoutFailures waits out every scheduled copyout and resolves
// the failures — end-of-medium retries, replica drops, bad-media
// retirement and restaging — until a drain completes clean. Both
// CompleteMigration and the replica-repair pass end with this loop.
func (hl *HighLight) drainCopyoutFailures(p *sim.Proc) error {
	for {
		hl.Svc.DrainCopyouts(p)
		failed := hl.Svc.FailedCopyouts()
		bad := hl.Svc.FailedWrites()
		if len(failed) == 0 && len(bad) == 0 {
			break
		}
		for _, tag := range failed {
			if primary, isReplica := hl.replicaTag[tag]; isReplica {
				// A replica hit end-of-medium: drop it from the
				// catalog (the primary is intact) and retire the
				// volume's free segments.
				hl.dropReplica(primary, tag)
				hl.retireVolumeOf(tag)
				continue
			}
			if err := hl.restageSegment(p, tag, true); err != nil {
				return err
			}
		}
		for _, tag := range bad {
			if tag < 0 || tag >= hl.FS.TsegCount() {
				// A corrupted tag reached the copyout path; there is no
				// segment to retire and no line to restage.
				return fmt.Errorf("core: copyout of unmappable tertiary index %d failed", tag)
			}
			if primary, isReplica := hl.replicaTag[tag]; isReplica {
				// A replica landed on bad media: the primary is intact.
				// Drop the replica; its segment was reserved no-store at
				// allocation, so marking it retired keeps it out of use.
				hl.dropReplica(primary, tag)
				hl.retiredSegs++
				continue
			}
			if err := hl.restageSegment(p, tag, false); err != nil {
				return err
			}
		}
		if err := hl.finishStaging(p); err != nil {
			return err
		}
		hl.FlushCopyouts(p)
	}
	return nil
}

// dropReplica removes one replica binding from the catalog.
func (hl *HighLight) dropReplica(primary, replica int) {
	delete(hl.replicaTag, replica)
	alts := hl.replicaOf[primary]
	out := alts[:0]
	for _, a := range alts {
		if a != replica {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		delete(hl.replicaOf, primary)
	} else {
		hl.replicaOf[primary] = out
	}
}

// retireVolumeOf marks the unwritten segments of tag's volume no-storage.
func (hl *HighLight) retireVolumeOf(tag int) {
	d, v, _, _ := hl.Amap.Loc(hl.Amap.SegForIndex(tag))
	spv := hl.Amap.Devices()[d].SegsPerVol
	for s := 0; s < spv; s++ {
		idx, _ := hl.Amap.TertIndex(hl.Amap.SegForLoc(d, v, s))
		if hl.FS.TsegUsage(idx).Flags&lfs.SegDirty == 0 {
			hl.FS.MarkTsegNoStore(idx)
		}
	}
}

// restageSegment handles a copyout that could not reach tag's tertiary
// segment. With wholeVolume set (end-of-medium, §6.3) the volume is
// marked full — its unwritten segments get no storage; otherwise (a
// permanent media error) only the bad segment is retired. Either way the
// staged contents move to a fresh segment. Retirement happens before the
// restage so the allocator can never re-pick the bad segment.
func (hl *HighLight) restageSegment(p *sim.Proc, tag int, wholeVolume bool) error {
	line, ok := hl.Cache.Peek(tag)
	if !ok {
		return fmt.Errorf("core: failed copyout of segment %d has no cache line", tag)
	}
	if wholeVolume {
		hl.retireVolumeOf(tag)
		hl.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "stage", Subject: fmt.Sprintf("seg:%d", tag),
			Seg: tag, Verdict: attr.VerdictRetired, Reason: "end of medium: volume tail marked no-store",
		})
	} else {
		hl.FS.MarkTsegNoStore(tag)
		hl.retiredSegs++
		hl.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "stage", Subject: fmt.Sprintf("seg:%d", tag),
			Seg: tag, Verdict: attr.VerdictRetired, Reason: "permanent media write error",
		})
	}
	// Parse the staged image off the cache line and rebuild refs with
	// their (failed) tertiary addresses. A torn tail is what a power cut
	// leaves on a staging line; durable metadata references only the valid
	// prefix (see validStagePrefix), which is what is parsed.
	sc, inums, err := hl.lineContents(p, line)
	if err != nil {
		return err
	}
	// Move the live contents to a fresh segment (reads come from the
	// still-bound cache line via the block map).
	if _, err := hl.MigrateRefs(p, sc.Blocks); err != nil {
		return err
	}
	if len(inums) > 0 {
		if err := hl.stageInodes(p, inums); err != nil {
			return err
		}
	}
	// The line is the sole copy of its blocks for as long as durable metadata
	// names their old addresses: make the moves durable before retiring it,
	// or a staging line opened in its segment overwrites blocks a crash would
	// find the checkpointed pointers still naming.
	if err := hl.FS.Checkpoint(p); err != nil {
		return err
	}
	// Retire the failed line: nothing references its addresses now.
	hl.Cache.Unstage(line)
	freed, err := hl.Cache.Evict(line)
	if err != nil {
		return fmt.Errorf("core: retiring failed staging line: %w", err)
	}
	hl.Cache.Release(freed)
	hl.Audit.Record(attr.Decision{
		T: p.Now(), Actor: "stage", Subject: fmt.Sprintf("seg:%d", tag),
		Seg: tag, Verdict: attr.VerdictRestaged, Reason: "contents moved to fresh segment",
		Inputs: []attr.Input{
			attr.In("blocks", float64(len(sc.Blocks))),
			attr.In("inodes", float64(len(inums))),
		},
	})
	return nil
}
