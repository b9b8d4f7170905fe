// Package core assembles HighLight: the 4.4BSD-LFS-derived file system
// (internal/lfs) extended with tertiary storage (§6 of the paper). It
// provides the block-map pseudo-device that dispatches the uniform block
// address space to the disk farm, the on-disk segment cache, or the
// tertiary devices; claims the static cache split; runs the service and
// I/O processes; and implements the staging-segment migration mechanism
// driven by the user-level migrator policies in internal/migrate.
package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
	"repro/internal/stripe"
	"repro/internal/tertiary"
)

// Config describes a HighLight instance.
type Config struct {
	// SegBlocks is the segment size in 4 KB blocks (default 256 = 1 MB).
	SegBlocks int
	// Disks form the disk farm, concatenated by the striping driver.
	Disks []dev.BlockDev
	// StripeUnit, when positive and more than one disk is given, stripes
	// the farm (stripe.NewInterleave) with this stripe unit in 4 KB blocks
	// instead of concatenating. Zero keeps the paper's concatenation.
	StripeUnit int
	// Parity adds a rotating RAID-5-style parity unit per stripe row
	// (requires StripeUnit and at least three disks).
	Parity bool
	// Streams is the number of concurrent tertiary I/O streams (staging
	// fills and copy-out drains) per library: each library has its own
	// queue and I/O processes. Values below 2 keep the single historical
	// stream.
	Streams int
	// VolStripe stripes tertiary segment allocation across this many
	// volumes so concurrent Streams drive different cartridges (see
	// HighLight.VolStripe). Values below 2 keep sequential allocation.
	VolStripe int
	// Jukeboxes are the tertiary devices (device 0 is consumed first).
	Jukeboxes []jukebox.Footprint
	// CacheSegs is the static limit of disk segments used as the
	// tertiary segment cache (§6.4). Default: 1/4 of the disk segments.
	CacheSegs int
	// CacheSegLo/CacheSegHi restrict the cache (and thus the staging
	// area) to a disk-segment range, e.g. a dedicated staging spindle
	// appended to the disk farm (Table 6's RZ58 / HP7958A configs).
	CacheSegLo, CacheSegHi int
	// CachePolicy selects the cache eviction policy (default cache.SLRU).
	CachePolicy cache.Policy
	// MaxInodes and BufferBytes configure the file system.
	MaxInodes   int
	BufferBytes int
	// AssemblyCopyRate / UserCopyRate model host CPU copy costs (see
	// lfs.Options); zero disables them.
	AssemblyCopyRate int64
	UserCopyRate     int64
	// GatherChunkBlocks caps the migrator's raw-read granularity (see
	// lfs.Options). 1 matches the paper's block-at-a-time gathering.
	GatherChunkBlocks int
	// Replicas configures tertiary segment replication (§5.4); see
	// HighLight.Replicas. Values below 2 disable it.
	Replicas int
	// Seed feeds the random eviction policy.
	Seed uint64
	// Obs is the observability domain the instance traces into. When
	// nil, New creates one on the instance's kernel — attach devices
	// (dev.Disk.SetObs, jukebox.SetObs) to the same domain to see the
	// whole stack on one timeline.
	Obs *obs.Obs
}

// HighLight is a mounted HighLight file system with its support processes.
type HighLight struct {
	K     *sim.Kernel
	Amap  *addr.Map
	Disk  *stripe.Farm
	FS    *lfs.FS
	Cache *cache.Cache
	Svc   *tertiary.Service
	Obs   *obs.Obs

	// Heat is the per-segment/per-file temperature table every cache
	// hit, demand fetch, staging, copy-out, ejection, and clean is
	// attributed to; Audit is the migration decision log the migrator,
	// staging mechanism, and tertiary cleaner record into (queryable
	// as `hldump -why`). Both are always live: they are pure functions
	// of the deterministic event stream, cost O(1) per event, and are
	// read only by exporters.
	Heat  *attr.Table
	Audit *attr.Audit

	jukes []jukebox.Footprint

	// Migration state: the staging segment currently being filled. staging
	// is held across every open / append / close of it (stage.go).
	staging  *sim.Resource
	stageTag int        // tertiary segment index, -1 if none
	stageSeg addr.SegNo // cache-line disk segment holding the image
	stageOff int        // next free block in the staging segment
	nextTert int        // next never-used tertiary segment index

	// VolStripe, when > 1, stripes tertiary segment allocation round-robin
	// across that many volumes of the first library, so concurrent copy-out
	// streams (Config.Streams) write different cartridges and a multi-drive
	// changer can service them in parallel. The default sequential
	// allocation packs volumes in order — bit-identical to the historical
	// allocator — but serializes concurrent streams on one loaded volume.
	VolStripe int
	stripeVol int // next volume in the rotation

	// DelayCopyouts holds completed staging segments until FlushCopyouts
	// instead of scheduling them immediately ("delaying segment writes to
	// a later idle period when there will be no contention for the disk
	// drive arm", §5.4).
	DelayCopyouts bool
	delayed       []stagedLine

	// Replicas is the number of tertiary copies written per staged
	// segment (§5.4's replication variant: "maintain several segment
	// replicas on tertiary storage, and have the staging code simply
	// read the closest copy"). Replicas land on different volumes, are
	// not counted as live data, and the catalog mapping primaries to
	// replicas is an in-memory performance hint (the paper's suggested
	// bookkeeping sidestep). 1 (or 0) disables replication.
	Replicas   int
	replicaOf  map[int][]int // primary tag -> replica tags
	replicaTag map[int]int   // replica tag -> primary tag

	// RepairThrottle, if set, is consulted by the repair daemon before
	// each pass; a true return skips the pass (graceful-degradation
	// "brownout": background repair yields to interactive traffic).
	RepairThrottle func() bool

	libs []*jukebox.Library // tertiary devices as failure domains

	// HSM pin registries (see pin.go): segment pin refcounts mirrored into
	// the persisted lfs.SegPinned flag, and inode pin refcounts consulted
	// by the migration policies.
	pinnedSegs   map[int]int
	pinnedInodes map[uint32]int

	retiredSegs int64 // tertiary segments retired after permanent write errors

	mountStats MountStats
}

// MountStats reports what crash recovery did while rebuilding the cache
// directory and tertiary state from the checkpointed tables.
type MountStats struct {
	// LinesRebound counts cache lines re-inserted from the checkpointed
	// segment-usage table.
	LinesRebound int
	// StagingRescheduled counts staging lines whose copy-out to tertiary
	// storage was interrupted by the crash and re-scheduled at mount.
	StagingRescheduled int
	// TornLinesDropped counts staging lines whose on-disk image held no
	// checksum-valid partial segment (the crash cut before any staged
	// write reached media); they are dropped and their tertiary segment
	// returned unused.
	TornLinesDropped int
	// PoolSelfHealed counts cache-pool segments re-claimed because the
	// checkpointed pool was short (e.g. a crash mid-claim).
	PoolSelfHealed int
}

// MountStats returns the recovery counters of the mount that created hl
// (all zero for a freshly formatted instance).
func (hl *HighLight) MountStats() MountStats { return hl.mountStats }

// RetiredSegments reports how many tertiary segments were retired (marked
// no-store) after permanent media write errors, each followed by a
// restage of its contents onto fresh media.
func (hl *HighLight) RetiredSegments() int64 { return hl.retiredSegs }

// Jukeboxes exposes the tertiary devices (for fault reports and dumps).
func (hl *HighLight) Jukeboxes() []jukebox.Footprint { return hl.jukes }

// Libraries exposes the tertiary devices as failure domains: one
// *jukebox.Library per configured device, in device order. Fault plans
// take a whole changer out of service through these handles.
func (hl *HighLight) Libraries() []*jukebox.Library { return hl.libs }

// stagedLine is a closed staging line whose copy-outs wait for FlushCopyouts:
// cache line seg, registered under tertiary segment tag, goes to each of
// dests (tag, then its replicas).
type stagedLine struct {
	seg   addr.SegNo
	tag   int
	dests []int
}

// New formats (format=true) or mounts a HighLight file system.
func New(p *sim.Proc, cfg Config, format bool) (*HighLight, error) {
	if cfg.SegBlocks <= 0 {
		cfg.SegBlocks = 256
	}
	if len(cfg.Disks) == 0 {
		return nil, fmt.Errorf("core: no disks")
	}
	// Concatenate by default, even a single disk: AddDisk appends
	// spindles to the farm on-line (§6.4). A stripe unit switches the
	// farm to the interleaved layout, trading on-line growth for
	// bandwidth.
	var disk *stripe.Farm
	var err error
	if cfg.StripeUnit > 0 && len(cfg.Disks) > 1 {
		disk, err = stripe.NewInterleave(cfg.StripeUnit, cfg.Parity, cfg.Disks...)
	} else {
		disk, err = stripe.New(cfg.Disks...)
	}
	if err != nil {
		return nil, fmt.Errorf("core: assembling disk farm: %w", err)
	}
	diskSegs := int(disk.NumBlocks()) / cfg.SegBlocks
	var geoms []addr.Geom
	for _, j := range cfg.Jukeboxes {
		geoms = append(geoms, addr.Geom{Vols: j.Volumes(), SegsPerVol: j.SegmentsPerVolume()})
	}
	amap := addr.New(cfg.SegBlocks, diskSegs, geoms...)
	if cfg.CacheSegs <= 0 {
		cfg.CacheSegs = diskSegs / 4
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New(p.Kernel())
	}
	hl := &HighLight{
		K:          p.Kernel(),
		Amap:       amap,
		Disk:       disk,
		Obs:        cfg.Obs,
		Heat:       attr.NewTable(0),
		Audit:      attr.NewAudit(0),
		jukes:      cfg.Jukeboxes,
		libs:       jukebox.AsLibraries(cfg.Jukeboxes),
		staging:    p.Kernel().NewResource("core.staging"),
		stageTag:   -1,
		replicaOf:  make(map[int][]int),
		replicaTag: make(map[int]int),
	}
	bm := &blockMap{hl: hl}
	opts := lfs.Options{
		MaxInodes:         cfg.MaxInodes,
		BufferBytes:       cfg.BufferBytes,
		CacheSegs:         cfg.CacheSegs,
		CacheSegLo:        cfg.CacheSegLo,
		CacheSegHi:        cfg.CacheSegHi,
		AssemblyCopyRate:  cfg.AssemblyCopyRate,
		UserCopyRate:      cfg.UserCopyRate,
		GatherChunkBlocks: cfg.GatherChunkBlocks,
	}
	var fs *lfs.FS
	if format {
		fs, err = lfs.Format(p, bm, amap, opts)
	} else {
		fs, err = lfs.Mount(p, bm, amap, opts)
	}
	if err != nil {
		return nil, err
	}
	hl.FS = fs

	// Claim the static cache split: the pool of disk segments reserved
	// for caching tertiary segments.
	var pool []addr.SegNo
	if format {
		for i := 0; i < cfg.CacheSegs; i++ {
			s, err := fs.AllocCacheSegment(p, lfs.NilCacheTag, false)
			if err != nil {
				return nil, fmt.Errorf("core: claiming cache segment %d of %d: %w", i, cfg.CacheSegs, err)
			}
			pool = append(pool, s)
		}
		// Persist the claim: the pool is part of the static disk split
		// and must survive a remount.
		if err := fs.Checkpoint(p); err != nil {
			return nil, err
		}
	} else {
		// Rebuild the pool and directory from the checkpointed segment
		// usage table.
		claimed := 0
		for s := 0; s < amap.DiskSegs(); s++ {
			su := fs.SegUsage(addr.SegNo(s))
			if su.Flags&lfs.SegCached == 0 {
				continue
			}
			claimed++
			pool = append(pool, addr.SegNo(s))
		}
		// Self-heal a short pool (e.g. images created before claims
		// were checkpointed, or a crash mid-claim).
		for claimed < fs.MaxCacheSegs() {
			s, err := fs.AllocCacheSegment(p, lfs.NilCacheTag, false)
			if err != nil {
				break
			}
			pool = append(pool, s)
			claimed++
			hl.mountStats.PoolSelfHealed++
		}
	}
	hl.Cache = cache.New(cfg.CachePolicy, pool, cfg.Seed)
	hl.Cache.SetObs(hl.Obs)
	hl.Cache.SetAttr(hl.Heat)
	// HSM pins gate eviction from the moment the directory exists: after a
	// crash the persisted SegPinned flags keep pinned lines resident even
	// before the HSM layer re-derives its refcounts.
	hl.Cache.Locked = hl.SegmentPinned
	// The directory writes every binding; the segment usage table persists
	// it for mount and fsck.
	hl.Cache.Bind = func(seg addr.SegNo, tag int, staging bool) {
		t := lfs.NilCacheTag
		if tag >= 0 {
			t = uint32(tag)
		}
		fs.SetCacheBinding(seg, t, staging)
	}
	// The service routes through the Library wrappers so whole-changer
	// outages gate I/O; an always-up wrapper delegates byte-for-byte.
	hl.Svc = tertiary.New(p.Kernel(), hl.Obs, amap, hl.libs, disk, hl.Cache)
	hl.Svc.OnCopiedOut = func(tag int) {
		if _, isReplica := hl.replicaTag[tag]; isReplica {
			return // replicas stay uncounted (§5.4)
		}
		fs.MarkTsegWritten(tag)
		hl.Audit.Record(attr.Decision{
			T: hl.K.Now(), Actor: "tertiary", Subject: fmt.Sprintf("seg:%d", tag),
			Seg: tag, Verdict: attr.VerdictCopiedOut,
			Inputs: []attr.Input{attr.In("replicas", float64(len(hl.replicaOf[tag])))},
		})
	}
	hl.Svc.SetAttr(hl.Heat)
	hl.Svc.SetAudit(hl.Audit)
	if cfg.Streams > 1 {
		// Extra tertiary I/O streams per library: staging fills and copy-out
		// drains overlap instead of strictly alternating on one daemon.
		hl.Svc.AddIOStreams(cfg.Streams - 1)
	}
	if cfg.VolStripe > 1 {
		hl.VolStripe = cfg.VolStripe
	}
	hl.Svc.AltCopies = func(tag int) []int { return hl.replicaOf[tag] }
	if cfg.Replicas > 1 {
		hl.Replicas = cfg.Replicas
	}
	if !format {
		// Re-insert bound lines; re-schedule staging lines that never
		// reached tertiary storage before the crash.
		now := p.Now()
		for s := 0; s < amap.DiskSegs(); s++ {
			su := fs.SegUsage(addr.SegNo(s))
			if su.Flags&lfs.SegCached == 0 || su.CacheTag == lfs.NilCacheTag {
				continue
			}
			tag := int(su.CacheTag)
			// The pool holds every claimed segment, so that the cache knows
			// its capacity; a bound one leaves the free list here.
			hl.Cache.TakeSeg(addr.SegNo(s))
			if su.Flags&lfs.SegStaging != 0 {
				// A staging line is the sole copy of its migrated blocks,
				// and the crash may have cut its image mid-write. Only the
				// checksum-valid pseg prefix can be referenced by durable
				// metadata (the disk write cache applies writes in issue
				// order, and pointer psegs are issued after the image
				// blocks they name), so the tertiary usage entry is rebuilt
				// from that prefix — or, if nothing valid landed, the line
				// is dropped and its tertiary segment returned unused.
				valid, live, perr := hl.validStagePrefix(p, addr.SegNo(s))
				if perr != nil {
					return nil, perr
				}
				if valid == 0 {
					hl.Cache.Release(addr.SegNo(s))
					fs.ResetTseg(tag)
					hl.mountStats.TornLinesDropped++
					continue
				}
				fs.RestoreTsegUsage(tag, live)
				if _, ierr := hl.Cache.Insert(tag, addr.SegNo(s), true, now); ierr != nil {
					return nil, fmt.Errorf("core: rebuilding cache directory: %w", ierr)
				}
				hl.mountStats.LinesRebound++
				hl.Svc.ScheduleCopyout(p, tag, addr.SegNo(s))
				hl.mountStats.StagingRescheduled++
				continue
			}
			if _, ierr := hl.Cache.Insert(tag, addr.SegNo(s), false, now); ierr != nil {
				return nil, fmt.Errorf("core: rebuilding cache directory: %w", ierr)
			}
			hl.mountStats.LinesRebound++
		}
		hl.Svc.DrainCopyouts(p)
		// With the cache directory serviceable again, drop any dirents
		// left dangling by a crash between a directory write and the
		// inode that would have backed it, then rebuild the live-byte
		// accounting from the reachable state (the checkpointed counts
		// may disagree with the durable pointers after a crash).
		if _, err := fs.RepairDangling(p); err != nil {
			return nil, fmt.Errorf("core: namespace repair: %w", err)
		}
		if err := fs.RecomputeLiveBytes(p); err != nil {
			return nil, fmt.Errorf("core: recomputing live bytes: %w", err)
		}
	}
	hl.nextTert = hl.scanNextTert()
	if format {
		hl.Obs.Instant("core", "core.mount", "format")
	} else {
		hl.Obs.Instant("core", "core.mount", "mount",
			obs.Arg{Key: "rebound", Val: int64(hl.mountStats.LinesRebound)},
			obs.Arg{Key: "rescheduled", Val: int64(hl.mountStats.StagingRescheduled)})
	}
	return hl, nil
}

// validStagePrefix parses the checksum-valid partial-segment prefix of a
// staging line image, returning the number of valid psegs and the live
// bytes they hold. A torn trailing pseg (undecodable summary or data
// checksum mismatch) stops the walk; everything before it is intact by
// write ordering, and nothing after it can be referenced by durable
// metadata.
func (hl *HighLight) validStagePrefix(p *sim.Proc, lineSeg addr.SegNo) (int, uint32, error) {
	raw := make([]byte, hl.Amap.SegBlocks()*lfs.BlockSize)
	if err := hl.FS.ReadRawBlocks(p, hl.Amap.BlockOf(lineSeg, 0), raw); err != nil {
		return 0, 0, err
	}
	sc := hl.FS.ParseSegment(lineSeg, raw)
	live := uint32(0)
	for _, sum := range sc.Psegs {
		live += uint32(sum.NBlocks) * lfs.BlockSize
	}
	return len(sc.Psegs), live, nil
}

// scanNextTert finds the first never-used tertiary segment index (media
// are consumed one at a time in index order, §6.5).
func (hl *HighLight) scanNextTert() int {
	for i := 0; i < hl.FS.TsegCount(); i++ {
		if hl.tsegEmpty(i) {
			return i
		}
	}
	return hl.FS.TsegCount()
}

// Checkpoint checkpoints the file system.
func (hl *HighLight) Checkpoint(p *sim.Proc) error {
	t0 := p.Now()
	err := hl.FS.Checkpoint(p)
	hl.Obs.Span("core", "core.ckpt", "Checkpoint", t0)
	return err
}

// blockMap is the pseudo-device of §6.6: it compares each block address
// with the region table and dispatches to the striped disk driver, the
// segment cache, or (via a demand fetch through the service process) the
// tertiary driver.
type blockMap struct {
	hl *HighLight
}

var _ lfs.Device = (*blockMap)(nil)
var _ lfs.Fetcher = (*blockMap)(nil)

// Flush drains the disk farm's write-back caches; the file system calls it
// as the ordering barrier inside Sync and Checkpoint.
func (bm *blockMap) Flush(p *sim.Proc) error { return bm.hl.Disk.Flush(p) }

// lookup looks tertiary segment tag up in the cache directory for one read:
// counted, marked on the request's trace, and on a miss waiting for the
// demand fetch. An expired or canceled request is refused before a fetch is
// queued (the cache-layer cancellation point).
func (bm *blockMap) lookup(p *sim.Proc, tag int) (*cache.Line, error) {
	line, ok := bm.hl.Cache.Lookup(tag, p.Now())
	if tr := reqtrace.From(p); tr != nil {
		note := "hit"
		if !ok {
			note = "miss"
		}
		tr.Mark(reqtrace.KindCacheLookup, p.Now(), note)
	}
	if ok {
		return line, nil
	}
	if err := p.CtxErr(); err != nil {
		return nil, err
	}
	return bm.hl.Svc.DemandFetch(p, tag)
}

// absent returns the first tertiary segment under blocks [b, b+n) that is
// not disk-resident, or -1. A Peek: recency and statistics stay untouched.
func (bm *blockMap) absent(b addr.BlockNo, n int) int {
	m := bm.hl.Amap
	for seg := m.SegOf(b); seg <= m.SegOf(b+addr.BlockNo(n-1)); seg++ {
		if tag, tert := m.TertIndex(seg); tert {
			if _, cached := bm.hl.Cache.Peek(tag); !cached {
				return tag
			}
		}
	}
	return -1
}

// WouldWait implements lfs.Fetcher.
func (bm *blockMap) WouldWait(b addr.BlockNo, n int) bool { return bm.absent(b, n) >= 0 }

// Fetch implements lfs.Fetcher for the first segment the read is missing.
// This is that read's accounted lookup; ReadAgain does not repeat it.
func (bm *blockMap) Fetch(p *sim.Proc, b addr.BlockNo, n int) (err error) {
	if tag := bm.absent(b, n); tag >= 0 {
		_, err = bm.lookup(p, tag)
	}
	return err
}

// ReadAgain implements lfs.Fetcher.
func (bm *blockMap) ReadAgain(p *sim.Proc, parts []dev.Part) error {
	return bm.read(p, parts, true)
}

// ReadBlocks implements lfs.Device: read of buf as one part.
func (bm *blockMap) ReadBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	return bm.read(p, []dev.Part{{Blk: int64(b), Buf: buf}}, false)
}

// ReadParts implements lfs.Device. A part the file system asks to borrow
// comes back lent where its disk extent is one the farm's disks do not own:
// a fetched line's adopted image, or a copied-out line's shared one.
func (bm *blockMap) ReadParts(p *sim.Proc, parts []dev.Part) error {
	return bm.read(p, parts, false)
}

// read is ReadParts; again marks the read Fetch just served, whose look at
// the cache directory has been counted and traced (as a miss) already. Disk
// addresses pass straight through to the farm; each tertiary segment's share
// goes to its cache line, a part cut where the segment ends.
func (bm *blockMap) read(p *sim.Proc, parts []dev.Part, again bool) error {
	hl := bm.hl
	var onLine [16]dev.Part // one segment's parts, moved to its cache line
	for len(parts) > 0 {
		b := addr.BlockNo(parts[0].Blk)
		seg := hl.Amap.SegOf(b)
		off := hl.Amap.OffOf(b)
		switch {
		case hl.Amap.IsDiskSeg(seg):
			// Disk requests pass straight through; extend the span
			// across segment boundaries within the disk region.
			last := parts[len(parts)-1]
			if !hl.Amap.IsDiskSeg(hl.Amap.SegOf(addr.BlockNo(last.Blk) + addr.BlockNo(len(last.Buf)/lfs.BlockSize-1))) {
				return fmt.Errorf("core: read crosses out of disk region at block %d", b)
			}
			return hl.Disk.ReadParts(p, parts)
		case !hl.Amap.IsTertiarySeg(seg):
			return fmt.Errorf("core: read of dead-zone block %d", b)
		}
		// The parts inside this segment, the last one cut at its end.
		chunk, span := onLine[:0], hl.Amap.SegBlocks()-off
		for len(parts) > 0 && span > 0 {
			pt := parts[0]
			parts = parts[1:]
			if len(pt.Buf) > span*lfs.BlockSize {
				rest := pt // starts the next segment
				rest.Blk, rest.Buf, rest.Lend = pt.Blk+int64(span), pt.Buf[span*lfs.BlockSize:], nil
				pt.Buf, pt.Lend = pt.Buf[:span*lfs.BlockSize], nil
				parts = append([]dev.Part{rest}, parts...)
			}
			span -= len(pt.Buf) / lfs.BlockSize
			chunk = append(chunk, pt)
		}
		tag, _ := hl.Amap.TertIndex(seg)
		var line *cache.Line
		if again {
			line, _ = hl.Cache.Peek(tag) // nil if gone again: a second miss
		}
		if line == nil {
			var err error
			if line, err = bm.lookup(p, tag); err != nil {
				return err
			}
		}
		shift := int64(hl.Amap.BlockOf(line.DiskSeg, off)) - int64(b)
		for i := range chunk {
			chunk[i].Blk += shift
		}
		hl.Svc.Pin(line) // not a victim while this reader sleeps on the arm
		err := hl.Disk.ReadParts(p, chunk)
		hl.Svc.Unpin(p, line)
		if err != nil {
			return err
		}
	}
	return nil
}

func (bm *blockMap) WriteBlocks(p *sim.Proc, b addr.BlockNo, buf []byte) error {
	hl := bm.hl
	n := len(buf) / lfs.BlockSize
	if !hl.Amap.IsDiskSeg(hl.Amap.SegOf(b)) || !hl.Amap.IsDiskSeg(hl.Amap.SegOf(b+addr.BlockNo(n-1))) {
		return fmt.Errorf("core: write to non-disk block %d (tertiary segments are written via the service process)", b)
	}
	return hl.Disk.WriteBlocks(p, int64(b), buf)
}

// Stats aggregates the observability counters of every layer.
type Stats struct {
	FS    lfs.Stats
	Svc   tertiary.Stats
	Cache cache.Stats

	CleanSegs    int
	CacheLines   int
	CacheLineCap int
	TertSegsUsed int
	RetiredSegs  int64
}

// Stats returns a snapshot across the file system, the tertiary service,
// and the segment cache.
func (hl *HighLight) Stats() Stats {
	s := Stats{
		FS:           hl.FS.Stats(),
		Svc:          hl.Svc.Stats(),
		Cache:        hl.Cache.Stats(),
		CleanSegs:    hl.FS.CleanSegs(),
		CacheLines:   hl.Cache.Len(),
		CacheLineCap: hl.Cache.Capacity(),
		RetiredSegs:  hl.retiredSegs,
	}
	for i := 0; i < hl.FS.TsegCount(); i++ {
		if hl.FS.TsegUsage(i).Flags&lfs.SegDirty != 0 {
			s.TertSegsUsed++
		}
	}
	return s
}
