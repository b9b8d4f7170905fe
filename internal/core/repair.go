package core

import (
	"fmt"
	"time"

	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Replica repair: the durability counterpart of the migration mechanism.
// Media retirement (a permanent write error burning a replica) and
// whole-library outages drop segments below their replication target;
// the repair pass finds them, re-reads a surviving copy (through the
// regular demand-fetch path, so the library-aware router picks the
// source), and lays down fresh replicas on healthy libraries. The system
// degrades instead of failing: reads keep being served from whatever
// copies survive while repair catches up in virtual time.

// One repair pass repairs two segments at a time and gives a transiently
// unplaceable deficit a few chances before deferring it to the next pass.
const (
	// repairMaxInFlight caps outstanding copyouts: a deficit's are queued
	// only once fewer are, so a large deficit backlog cannot monopolize
	// the I/O process.
	repairMaxInFlight = 2
	// repairRetries bounds placement retries per deficit when every
	// healthy library is momentarily full or down; repairBackoff is the
	// virtual-time sleep between them.
	repairRetries = 3
	repairBackoff = 250 * sim.Time(time.Millisecond)
)

// Deficit describes one under-replicated tertiary segment.
type Deficit struct {
	Tag     int   // primary tertiary segment index
	Copies  int   // reachable copies right now (primary + live replicas)
	Target  int   // desired copy count (HighLight.Replicas, min 1)
	Sources []int // tags a repair read could be served from
}

// replicaTarget is the copy count every dirty segment should have.
func (hl *HighLight) replicaTarget() int {
	if hl.Replicas > 1 {
		return hl.Replicas
	}
	return 1
}

// ReplicationDeficits scans the tertiary usage table for segments with
// fewer reachable copies than the replication target. A copy is
// reachable when its library is in service; the staging segment (still
// disk-only) and replica tags themselves are skipped.
func (hl *HighLight) ReplicationDeficits() []Deficit {
	target := hl.replicaTarget()
	var out []Deficit
	for tag := 0; tag < hl.FS.TsegCount(); tag++ {
		su := hl.FS.TsegUsage(tag)
		if su.Flags&lfs.SegDirty == 0 || su.LiveBytes == 0 {
			continue
		}
		if _, isReplica := hl.replicaTag[tag]; isReplica {
			continue
		}
		if tag == hl.stageTag {
			continue
		}
		copies := 0
		var sources []int
		if !hl.tagLibDown(tag) {
			copies++
			sources = append(sources, tag)
		}
		for _, r := range hl.replicaOf[tag] {
			if !hl.tagLibDown(r) {
				copies++
				sources = append(sources, r)
			}
		}
		if copies >= target {
			continue
		}
		if _, cached := hl.Cache.Peek(tag); cached && len(sources) == 0 {
			// The disk cache still holds the bytes: not a reachable
			// tertiary copy, but a valid repair source.
			sources = append(sources, tag)
		}
		out = append(out, Deficit{Tag: tag, Copies: copies, Target: target, Sources: sources})
	}
	return out
}

// RepairPass restores replication for every current deficit: fetch a
// surviving copy into the cache, allocate fresh replica segments on
// healthy libraries (with bounded placement retries), and copy the bytes
// out, each deficit's once fewer than repairMaxInFlight copyouts are
// outstanding. It returns how
// many replicas were laid down. Deficits that cannot be repaired yet —
// no space, every other library down — are deferred to the next pass;
// segments with no surviving copy at all are recorded as lost.
func (hl *HighLight) RepairPass(p *sim.Proc) (int, error) {
	defs := hl.ReplicationDeficits()
	gauge := hl.Obs.Gauge("repair.under_replicated")
	gauge.Set(int64(len(defs)))
	if len(defs) == 0 {
		return 0, nil
	}
	t0 := p.Now()
	repaired := 0
	for _, d := range defs {
		n, err := hl.repairOne(p, d)
		repaired += n
		if err != nil {
			return repaired, err
		}
	}
	if err := hl.drainCopyoutFailures(p); err != nil {
		return repaired, err
	}
	// The no-store reservations for the new replicas must survive a
	// crash, or the allocator could hand the same segments out again.
	if err := hl.FS.CheckpointTables(p); err != nil {
		return repaired, err
	}
	gauge.Set(int64(len(hl.ReplicationDeficits())))
	hl.Obs.Span("core", "core.repair", "RepairPass", t0,
		obs.Arg{Key: "deficits", Val: int64(len(defs))}, obs.Arg{Key: "repaired", Val: int64(repaired)})
	return repaired, nil
}

// repairOne brings one deficit back to target: the copyouts of every
// replica it could place are scheduled together, so they share one image of
// the line.
func (hl *HighLight) repairOne(p *sim.Proc, d Deficit) (int, error) {
	if len(d.Sources) == 0 {
		hl.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "repair", Subject: fmt.Sprintf("seg:%d", d.Tag),
			Seg: d.Tag, Verdict: attr.VerdictLost, Reason: "no surviving copy",
			Inputs: []attr.Input{attr.In("copies", 0), attr.In("target", float64(d.Target))},
		})
		hl.Obs.Counter("repair.segments_lost").Add(1)
		return 0, nil
	}
	// Materialize the bytes on disk. DemandFetch routes through the
	// library-aware read order, so a down primary is served from a
	// surviving replica transparently.
	line, ok := hl.Cache.Peek(d.Tag)
	if !ok {
		var err error
		line, err = hl.Svc.DemandFetch(p, d.Tag)
		if err != nil {
			hl.Audit.Record(attr.Decision{
				T: p.Now(), Actor: "repair", Subject: fmt.Sprintf("seg:%d", d.Tag),
				Seg: d.Tag, Verdict: attr.VerdictDeferred, Reason: "source fetch failed: " + err.Error(),
			})
			return 0, nil
		}
	}
	var rtags []int
	for missing := d.Target - d.Copies; missing > 0; missing-- {
		rtag, ok := hl.allocRepairTarget(p, d.Tag)
		if !ok {
			hl.Audit.Record(attr.Decision{
				T: p.Now(), Actor: "repair", Subject: fmt.Sprintf("seg:%d", d.Tag),
				Seg: d.Tag, Verdict: attr.VerdictDeferred, Reason: "no placeable replica segment",
				Inputs: []attr.Input{attr.In("missing", float64(missing))},
			})
			break
		}
		// Catalog before copyout: OnCopiedOut must see rtag as
		// a replica so it is never counted as live primary data.
		hl.replicaOf[d.Tag] = append(hl.replicaOf[d.Tag], rtag)
		hl.replicaTag[rtag] = d.Tag
		rtags = append(rtags, rtag)
	}
	if len(rtags) == 0 {
		return 0, nil
	}
	for hl.Svc.OutstandingCopyouts() >= repairMaxInFlight {
		hl.Svc.WaitCopyoutProgress(p)
	}
	hl.Svc.ScheduleCopyouts(p, line.DiskSeg, nil, d.Tag, rtags...)
	for i, rtag := range rtags {
		hl.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "repair", Subject: fmt.Sprintf("seg:%d", rtag),
			Seg: d.Tag, Verdict: attr.VerdictRepaired, Reason: "replica re-copied",
			Inputs: []attr.Input{attr.In("replica", float64(rtag)), attr.In("copies", float64(d.Copies+i+1))},
		})
		hl.Obs.Counter("repair.segments_repaired").Add(1)
		hl.Obs.Counter("repair.bytes_repaired").Add(int64(hl.Amap.SegBlocks() * lfs.BlockSize))
	}
	return len(rtags), nil
}

// allocRepairTarget allocates a replica segment under the repair retry
// policy: placement can fail transiently (a library rejoining, the
// cleaner freeing space), so each deficit gets a few backed-off chances
// before deferring.
func (hl *HighLight) allocRepairTarget(p *sim.Proc, primary int) (int, bool) {
	for attempt := 0; ; attempt++ {
		if rtag, ok := hl.allocReplicaTag(primary); ok {
			return rtag, true
		}
		if attempt >= repairRetries {
			return 0, false
		}
		p.Sleep(repairBackoff)
	}
}

// ReplicaCatalog returns a copy of the in-memory replica catalog:
// primary tertiary segment index → replica indices, placement order.
func (hl *HighLight) ReplicaCatalog() map[int][]int {
	out := make(map[int][]int, len(hl.replicaOf))
	for p, rs := range hl.replicaOf {
		out[p] = append([]int(nil), rs...)
	}
	return out
}

// RestoreReplicaCatalog re-installs a replica catalog captured by
// ReplicaCatalog in an earlier process. The catalog is in-memory state,
// so image tooling persists it across mounts and replays it here after
// loading; entries whose tertiary segment no longer carries data or a
// reservation are dropped rather than trusted.
func (hl *HighLight) RestoreReplicaCatalog(m map[int][]int) {
	for prim, reps := range m {
		if prim < 0 || prim >= hl.FS.TsegCount() {
			continue
		}
		for _, r := range reps {
			if r < 0 || r >= hl.FS.TsegCount() {
				continue
			}
			if hl.FS.TsegUsage(r).Flags&(lfs.SegDirty|lfs.SegNoStore) == 0 {
				continue
			}
			hl.replicaOf[prim] = append(hl.replicaOf[prim], r)
			hl.replicaTag[r] = prim
		}
	}
}

// LibraryStatus summarizes one library's health, load and capacity for reports.
type LibraryStatus struct {
	ID          int
	Name        string
	Down        bool
	Reads       int64 // segments the device has read and written
	Writes      int64
	Outstanding int // transfers queued or in flight at its I/O processes
	TotalSegs   int
	FreeSegs    int // allocatable (clean, uncached, not reserved)
	UsedSegs    int // dirty segments holding data
	NoStoreSegs int // reserved: replicas, retired tails, bad media
}

// LibraryStatuses reports per-library health and capacity, device order.
func (hl *HighLight) LibraryStatuses() []LibraryStatus {
	out := make([]LibraryStatus, len(hl.libs))
	for d, l := range hl.libs {
		js := l.Stats()
		st := LibraryStatus{ID: l.ID(), Name: l.Name(), Down: l.Down(),
			Reads: js.Reads, Writes: js.Writes, Outstanding: hl.Svc.Outstanding(d)}
		start, n := hl.deviceTsegRange(d)
		end := start + n
		if end > hl.FS.TsegCount() {
			end = hl.FS.TsegCount()
		}
		st.TotalSegs = end - start
		for idx := start; idx < end; idx++ {
			su := hl.FS.TsegUsage(idx)
			switch {
			case su.Flags&lfs.SegDirty != 0:
				st.UsedSegs++
			case su.Flags&lfs.SegNoStore != 0:
				st.NoStoreSegs++
			case hl.tsegEmpty(idx):
				st.FreeSegs++
			}
		}
		out[d] = st
	}
	return out
}
