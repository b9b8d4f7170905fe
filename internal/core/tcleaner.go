package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Tertiary media cleaning — the paper's §10 future work: "HighLight will
// need a tertiary cleaning mechanism that examines tertiary volumes, a
// task that would best be done with at least two reader/writer devices to
// avoid having to swap between the being-cleaned volume and the
// destination volume."
//
// CleanVolume reclaims one whole medium at a time (minimizing media swaps
// and seek passes, §6.5): every segment of the volume is fetched through
// the segment cache, its live blocks are re-staged onto the current
// migration volume, and the emptied medium is erased and returned to
// service. With the jukebox's write drive pinned to the destination volume
// and reads served by the other drive, the being-cleaned and destination
// volumes never contend for one drive.

// VolumeUsage summarizes one tertiary volume for cleaning decisions.
type VolumeUsage struct {
	Device, Volume int
	LiveBytes      int64
	UsedSegs       int // segments holding (possibly dead) data
	NoStoreSegs    int // segments with no storage (end-of-medium tail)
}

// VolumeUsages reports per-volume statistics from the tsegfile.
func (hl *HighLight) VolumeUsages() []VolumeUsage {
	var out []VolumeUsage
	for d, g := range hl.Amap.Devices() {
		for v := 0; v < g.Vols; v++ {
			u := VolumeUsage{Device: d, Volume: v}
			for s := 0; s < g.SegsPerVol; s++ {
				idx, _ := hl.Amap.TertIndex(hl.Amap.SegForLoc(d, v, s))
				su := hl.FS.TsegUsage(idx)
				if su.Flags&lfs.SegNoStore != 0 {
					u.NoStoreSegs++
				}
				if su.Flags&lfs.SegDirty != 0 {
					u.UsedSegs++
					u.LiveBytes += int64(su.LiveBytes)
				}
			}
			out = append(out, u)
		}
	}
	return out
}

// SelectCleanableVolume picks the used volume with the least live data —
// the cheapest whole-medium reclaim. Volumes holding the current staging
// target are skipped. ok is false when no used volume exists.
func (hl *HighLight) SelectCleanableVolume() (VolumeUsage, bool) {
	usages := hl.VolumeUsages()
	sort.Slice(usages, func(a, b int) bool {
		if usages[a].LiveBytes != usages[b].LiveBytes {
			return usages[a].LiveBytes < usages[b].LiveBytes
		}
		return usages[a].Volume < usages[b].Volume
	})
	now := hl.K.Now()
	for _, u := range usages {
		if u.UsedSegs == 0 && u.NoStoreSegs == 0 {
			hl.Audit.Record(attr.Decision{
				T: now, Actor: "tcleaner", Subject: fmt.Sprintf("vol:%d/%d", u.Device, u.Volume),
				Seg: -1, Verdict: attr.VerdictSkipped, Reason: "volume unused",
			})
			continue
		}
		if hl.volumeHoldsSoleCopy(u.Device, u.Volume) {
			hl.Audit.Record(attr.Decision{
				T: now, Actor: "tcleaner", Subject: fmt.Sprintf("vol:%d/%d", u.Device, u.Volume),
				Seg: -1, Verdict: attr.VerdictSkipped, Reason: "sole surviving replica; repair pending",
			})
			continue
		}
		hl.Audit.Record(attr.Decision{
			T: now, Actor: "tcleaner", Subject: fmt.Sprintf("vol:%d/%d", u.Device, u.Volume),
			Seg: -1, Verdict: attr.VerdictSelected, Reason: "least live data among used volumes",
			Inputs: []attr.Input{
				attr.In("live_bytes", float64(u.LiveBytes)),
				attr.In("used_segs", float64(u.UsedSegs)),
				attr.In("no_store_segs", float64(u.NoStoreSegs)),
			},
		})
		return u, true
	}
	return VolumeUsage{}, false
}

// ErrSoleSurvivingReplica guards the repair/cleaner ordering: a volume
// holding the only reachable copy of some segment (its primary's library
// is down, every other replica gone) must not be collected until the
// repair pass has re-replicated it elsewhere.
var ErrSoleSurvivingReplica = errors.New("core: volume holds a sole surviving replica; repair pending")

// ErrTornSegment reports a cached copy of a written tertiary segment that
// ends on a partial segment whose extent or data checksum does not hold.
// Blocks past that point cannot be told live from damaged, so the image is
// neither re-staged nor its medium erased: the copy on the medium stands.
var ErrTornSegment = errors.New("core: torn tertiary segment image")

// volumeHoldsSoleCopy reports whether erasing (device, vol) would destroy
// the last reachable copy of any segment. Primaries on the volume are
// safe — CleanVolume re-stages their live blocks before erasing — but
// replicas are dropped without relocation, which is only sound while
// another copy survives.
func (hl *HighLight) volumeHoldsSoleCopy(device, vol int) bool {
	g := hl.Amap.Devices()[device]
	for s := 0; s < g.SegsPerVol; s++ {
		idx, _ := hl.Amap.TertIndex(hl.Amap.SegForLoc(device, vol, s))
		primary, isReplica := hl.replicaTag[idx]
		if !isReplica {
			continue
		}
		// A survivor must live off this volume (the erase destroys every
		// copy on it) and in a library that is up.
		onVolume := func(t int) bool {
			td, tv, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(t))
			return ok && td == device && tv == vol
		}
		survivors := 0
		if !hl.tagLibDown(primary) && !onVolume(primary) && hl.FS.TsegUsage(primary).Flags&lfs.SegDirty != 0 {
			survivors++
		}
		for _, r := range hl.replicaOf[primary] {
			if r != idx && !hl.tagLibDown(r) && !onVolume(r) {
				survivors++
			}
		}
		if survivors == 0 {
			return true
		}
	}
	return false
}

// CleanVolume reclaims tertiary volume (device, vol): live blocks move to
// fresh segments on the current migration volume, the medium is erased,
// and its segments return to the allocatable pool. It returns the number
// of blocks relocated. The caller should invoke CompleteMigration
// afterwards to drain the re-staging copyouts.
func (hl *HighLight) CleanVolume(p *sim.Proc, device, vol int) (int, error) {
	t0 := p.Now()
	defer func() {
		hl.Obs.Span("core", "core.clean", "CleanVolume", t0,
			obs.Arg{Key: "device", Val: int64(device)}, obs.Arg{Key: "vol", Val: int64(vol)})
	}()
	if hl.volumeHoldsSoleCopy(device, vol) {
		return 0, fmt.Errorf("core: cleaning volume %d/%d: %w", device, vol, ErrSoleSurvivingReplica)
	}
	g := hl.Amap.Devices()[device]
	// Fence allocation away from this volume first: an open staging
	// segment on it is closed out, and its free segments are marked
	// no-storage so re-staged data cannot land on the medium about to
	// be erased.
	if hl.stageTag >= 0 {
		if d, v, _, ok := hl.Amap.Loc(hl.Amap.SegForIndex(hl.stageTag)); ok && d == device && v == vol {
			if err := hl.finishStaging(p); err != nil {
				return 0, err
			}
			hl.Svc.DrainCopyouts(p)
		}
	}
	var cleanedIdx []int
	for s := 0; s < g.SegsPerVol; s++ {
		idx, _ := hl.Amap.TertIndex(hl.Amap.SegForLoc(device, vol, s))
		cleanedIdx = append(cleanedIdx, idx)
		if hl.FS.TsegUsage(idx).Flags == 0 {
			hl.FS.MarkTsegNoStore(idx)
		}
	}
	relocated := 0
	for s, idx := range cleanedIdx {
		su := hl.FS.TsegUsage(idx)
		if su.Flags&lfs.SegDirty == 0 {
			hl.Audit.Record(attr.Decision{
				T: p.Now(), Actor: "tcleaner", Subject: fmt.Sprintf("seg:%d", idx),
				Seg: idx, Verdict: attr.VerdictSkipped, Reason: "no live data",
				Inputs: []attr.Input{attr.In("heat", hl.Heat.Heat(idx, p.Now()))},
			})
			continue
		}
		n, err := hl.RestageTertSegment(p, idx)
		if err != nil {
			return relocated, fmt.Errorf("core: cleaning volume %d/%d segment %d: %w", device, vol, s, err)
		}
		relocated += n
		hl.Heat.Touch(idx, attr.Clean, p.Now())
		hl.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "tcleaner", Subject: fmt.Sprintf("seg:%d", idx),
			Seg: idx, Verdict: attr.VerdictCleaned,
			Inputs: []attr.Input{
				attr.In("live_bytes", float64(su.LiveBytes)),
				attr.In("blocks_moved", float64(n)),
				attr.In("heat", hl.Heat.Heat(idx, p.Now())),
			},
		})
	}
	// Close out the re-staged data before touching the medium: the old
	// copies must never be the sole ones when the volume is erased.
	if err := hl.CompleteMigration(p); err != nil {
		return relocated, err
	}
	// Drop any cache lines for the cleaned segments and reset the
	// tsegfile entries; then erase the medium so it can be rewritten.
	for _, idx := range cleanedIdx {
		if l, ok := hl.Cache.Peek(idx); ok && hl.Cache.Evictable(l) {
			seg, err := hl.Cache.Evict(l)
			if err != nil {
				return relocated, fmt.Errorf("core: dropping cleaned line %d: %w", idx, err)
			}
			hl.Cache.Release(seg)
		}
		hl.FS.ResetTseg(idx)
		// Invalidate replica-catalog entries touching the erased medium:
		// replicas stored here are gone, and primaries stored here were
		// relocated, so their replicas are orphaned hints.
		if primary, isReplica := hl.replicaTag[idx]; isReplica {
			hl.dropReplica(primary, idx)
		}
		if alts, isPrimary := hl.replicaOf[idx]; isPrimary {
			for _, a := range alts {
				delete(hl.replicaTag, a)
			}
			delete(hl.replicaOf, idx)
		}
	}
	hl.libs[device].EraseVolume(vol)
	// Cleaned segments below the allocation cursor become usable again.
	if low, _ := hl.Amap.TertIndex(hl.Amap.SegForLoc(device, vol, 0)); low < hl.nextTert {
		hl.nextTert = low
	}
	hl.nextTert = hl.scanNextTert()
	return relocated, hl.FS.Checkpoint(p)
}

// RestageTertSegment re-stages the live contents of one tertiary segment
// onto the current migration volume, leaving the old copy dead (its live
// bytes drop to zero as pointers move). The whole-volume cleaner uses it.
// The caller completes the migration (CompleteMigration) to make the move
// durable.
func (hl *HighLight) RestageTertSegment(p *sim.Proc, idx int) (int, error) {
	// Fetch through the cache (a whole-medium clean walks the volume
	// sequentially, so fetches are seek-cheap on the jukebox).
	if _, ok := hl.Cache.Peek(idx); !ok {
		if _, err := hl.Svc.DemandFetch(p, idx); err != nil {
			return 0, err
		}
	}
	line, _ := hl.Cache.Peek(idx)
	line.Pins++
	defer func() { line.Pins-- }()
	sc, liveInums, err := hl.lineContents(p, line)
	if err != nil {
		return 0, err
	}
	if sc.Torn {
		return 0, fmt.Errorf("core: tertiary segment %d, cache line %d: %w", idx, line.DiskSeg, ErrTornSegment)
	}
	n, err := hl.MigrateRefs(p, sc.Blocks)
	if err != nil {
		return 0, err
	}
	moved := int(n / lfs.BlockSize)
	if len(liveInums) > 0 {
		if err := hl.stageInodes(p, liveInums); err != nil {
			return moved, err
		}
		moved += len(liveInums)
	}
	return moved, nil
}

// lineContents reads a tertiary segment's image off its cache line and
// parses it, blocks addressed on tertiary storage. Beside the contents it
// returns the inodes whose imap entry still points into the segment (live
// inodes re-stage with the blocks).
func (hl *HighLight) lineContents(p *sim.Proc, line *cache.Line) (*lfs.SegmentContents, []uint32, error) {
	raw := make([]byte, hl.Amap.SegBlocks()*lfs.BlockSize)
	if err := hl.FS.ReadRawBlocks(p, hl.Amap.BlockOf(line.DiskSeg, 0), raw); err != nil {
		return nil, nil, err
	}
	sc := hl.FS.ParseSegment(hl.Amap.SegForIndex(line.Tag), raw)
	var inums []uint32
	for _, ir := range sc.Inodes {
		e := hl.FS.Imap(ir.Inum)
		if e.Addr == ir.Addr && e.Slot == ir.Slot && e.Version == ir.Version {
			inums = append(inums, ir.Inum)
		}
	}
	return sc, inums, nil
}
