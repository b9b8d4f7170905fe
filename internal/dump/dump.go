// Package dump renders the paper's figures from a live HighLight instance:
// the LFS on-disk layout with segment states and log contents (Figures 1
// and 3), the block address allocation (Figure 4), the storage hierarchy
// data flow (Figure 2), and the layered demand-fetch path (Figure 5).
package dump

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// segStateLetters renders a segment's state in the paper's key:
// d = dirty, c = clean, a = active, C = cached (Figure 3).
func segStateLetters(su lfs.Seguse) string {
	var s []string
	if su.Flags&lfs.SegDirty != 0 {
		s = append(s, "d")
	}
	if su.Flags&lfs.SegActive != 0 {
		s = append(s, "a")
	}
	if su.Flags&lfs.SegCached != 0 {
		s = append(s, "C")
	}
	if su.Flags&lfs.SegStaging != 0 {
		s = append(s, "S")
	}
	if su.Flags&lfs.SegNoStore != 0 {
		s = append(s, "-")
	}
	if len(s) == 0 {
		s = append(s, "c")
	}
	return strings.Join(s, ",")
}

// Layout prints the on-media data layout: per-segment states, live bytes,
// cache bindings, and (for dirty segments) the partial-segment log
// contents — the textual rendering of Figures 1 and 3. maxSegs bounds the
// per-segment detail (0 = all).
func Layout(p *sim.Proc, w io.Writer, hl *core.HighLight, maxSegs int) error {
	fs := hl.FS
	fmt.Fprintf(w, "LFS data layout (Figures 1 & 3)  [state key: c=clean d=dirty a=active C=cached S=staging]\n")
	fmt.Fprintf(w, "disk segments (%d total, %d reserved boot area, %d-block segments):\n",
		hl.Amap.DiskSegs(), fs.ReservedSegs(), hl.Amap.SegBlocks())
	shown := 0
	for s := 0; s < hl.Amap.DiskSegs(); s++ {
		su := fs.SegUsage(addr.SegNo(s))
		if su.Flags == 0 && su.LiveBytes == 0 {
			continue // clean and never used: skip for brevity
		}
		if maxSegs > 0 && shown >= maxSegs {
			fmt.Fprintf(w, "  ... (%d more segments)\n", hl.Amap.DiskSegs()-s)
			break
		}
		shown++
		tag := ""
		if su.Flags&lfs.SegCached != 0 {
			if su.CacheTag == lfs.NilCacheTag {
				tag = " cache-line: free"
			} else {
				tag = fmt.Sprintf(" cache-line for tertiary seg %d", su.CacheTag)
			}
		}
		fmt.Fprintf(w, "  seg %4d [%-3s] live %7d B%s\n", s, segStateLetters(su), su.LiveBytes, tag)
		if su.Flags&lfs.SegDirty != 0 && su.Flags&lfs.SegCached == 0 {
			if fs.Discarded(addr.SegNo(s)) {
				fmt.Fprintf(w, "    (discarded)\n")
				continue
			}
			sc, err := fs.ReadSegment(p, addr.SegNo(s))
			if err != nil {
				continue
			}
			for i, sum := range sc.Psegs {
				kind := "pseg"
				if sum.Flags&lfs.SumCheckpoint != 0 {
					kind = "pseg (checkpoint)"
				}
				fmt.Fprintf(w, "    %s @%d: %d blocks, next seg %d, %d files, %d inode blocks\n",
					kind, sc.Offsets[i], sum.NBlocks, sum.Next, len(sum.Finfos), len(sum.InoAddrs))
				for _, fi := range sum.Finfos {
					fmt.Fprintf(w, "      file inum %d v%d: lbns %s\n", fi.Inum, fi.Version, lbnList(fi.Lbns))
				}
			}
		}
	}
	// Tertiary side (Figure 3's lower half).
	fmt.Fprintf(w, "tertiary segments (tsegfile, %d entries):\n", fs.TsegCount())
	for idx := 0; idx < fs.TsegCount(); idx++ {
		su := fs.TsegUsage(idx)
		if su.Flags == 0 && su.LiveBytes == 0 {
			continue
		}
		seg := hl.Amap.SegForIndex(idx)
		d, v, vs, _ := hl.Amap.Loc(seg)
		cached := ""
		if l, ok := hl.Cache.Peek(idx); ok {
			cached = fmt.Sprintf("  [cached in disk seg %d]", l.DiskSeg)
		}
		fmt.Fprintf(w, "  tseg %4d (dev %d vol %d seg %d) [%-3s] live %7d B%s\n",
			idx, d, v, vs, segStateLetters(su), su.LiveBytes, cached)
	}
	resident(w, hl)
	return nil
}

// resident prints the memory each changer's and each disk's simulated media
// hold. Changers go first, so an extent a disk shares with a changer (a
// fetched line's image, a copied-out line) counts once, at the changer.
func resident(w io.Writer, hl *core.HighLight) {
	held := dev.Resident{}
	fmt.Fprintf(w, "resident media memory (an extent two devices hold counts once):\n")
	for i, j := range hl.Jukeboxes() {
		if h, ok := j.(interface{ Resident(dev.Resident) int64 }); ok {
			fmt.Fprintf(w, "  changer %d: %6.2f MB\n", i, float64(h.Resident(held))/(1<<20))
		}
	}
	for i, n := range hl.Disk.Resident(held) {
		fmt.Fprintf(w, "  disk %d:    %6.2f MB\n", i, float64(n)/(1<<20))
	}
}

func lbnList(lbns []int32) string {
	if len(lbns) == 0 {
		return "-"
	}
	// Compress runs: "0-14,-1".
	var parts []string
	start := lbns[0]
	prev := lbns[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, l := range lbns[1:] {
		if l == prev+1 {
			prev = l
			continue
		}
		flush()
		start, prev = l, l
	}
	flush()
	return strings.Join(parts, ",")
}

// AddrMap prints the block address allocation (Figure 4).
func AddrMap(w io.Writer, hl *core.HighLight) {
	fmt.Fprintln(w, "Block address allocation (Figure 4)")
	fmt.Fprint(w, hl.Amap.Describe())
}

// Hierarchy narrates the storage hierarchy data flow of Figure 2 by
// driving a file through it: initial write to the disk farm, automatic
// migration to the jukebox, ejection, and a demand fetch back into the
// cache.
func Hierarchy(p *sim.Proc, w io.Writer, hl *core.HighLight) error {
	fmt.Fprintln(w, "Storage hierarchy data flow (Figure 2)")
	report := func(stage string) {
		st := hl.Svc.Stats()
		fmt.Fprintf(w, "  [%s] t=%.2fs  cache lines=%d/%d  fetches=%d  copyouts=%d\n",
			stage, p.Now().Seconds(), hl.Cache.Len(), hl.Cache.Capacity(), st.Fetches, st.Copyouts)
	}
	f, err := hl.FS.Create(p, "/figure2-demo")
	if err != nil {
		return err
	}
	data := make([]byte, 6*hl.Amap.SegBlocks()*lfs.BlockSize/4)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		return err
	}
	if err := hl.FS.Sync(p); err != nil {
		return err
	}
	fmt.Fprintln(w, "  reads; initial writes  -> disk farm (log tail)")
	report("written to disk farm")
	if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
		return err
	}
	if err := hl.CompleteMigration(p); err != nil {
		return err
	}
	fmt.Fprintln(w, "  automigration          -> staging segments copied to tertiary jukebox")
	report("migrated to tertiary")
	hl.FS.DropFileBuffers(p, f.Inum())
	if _, err := hl.Svc.EjectAll(); err != nil {
		return err
	}
	report("cache ejected")
	buf := make([]byte, 8192)
	if _, err := f.ReadAt(p, buf, 0); err != nil {
		return err
	}
	fmt.Fprintln(w, "  caching                <- demand fetch: containing segment cached on disk, read served")
	report("demand fetched")
	fmt.Fprintf(w, "  %s\n", SegmentCache(hl))
	return nil
}

// SegmentCache is the one-line standing of the segment cache: occupancy, how
// reads fared, what segmented LRU moved between its two segments, and the two
// counts that say replacement or line supply is the problem — segments
// fetched again soon after replacement threw them out, and fetches whose data
// arrived to no line to be had and were read again.
func SegmentCache(hl *core.HighLight) string {
	cs, ts := hl.Cache.Stats(), hl.Svc.Stats()
	return fmt.Sprintf("segment cache: %d/%d lines, %d hits, %d misses, %d promotions, %d demotions, %d refetches, %d late deferrals",
		hl.Cache.Len(), hl.Cache.Capacity(), cs.Hits, cs.Misses, cs.Promotions, cs.Demotions, cs.Refetches, ts.LateDefers)
}

// Faults renders the fault-visibility report: per-device counters of
// injected (Fault-hook) errors and drive failovers, the recovery
// counters of the tertiary service, and the retired-segment tally.
func Faults(w io.Writer, hl *core.HighLight) {
	fmt.Fprintln(w, "Fault injection & recovery")
	devs := hl.Svc.DeviceFaults()
	if len(devs) == 0 {
		fmt.Fprintln(w, "  (no instrumented devices)")
	}
	for _, d := range devs {
		fmt.Fprintf(w, "  device %-12s injected: %d read / %d write / %d load faults   failovers: %d\n",
			d.Name, d.ReadFaults, d.WriteFaults, d.LoadFaults, d.Failovers)
	}
	st := hl.Svc.Stats()
	fmt.Fprintf(w, "  recovery: %d transient retries, %d budgets exhausted, %d replica redirects\n",
		st.TransientRetries, st.RetriesExhausted, st.ReplicaRedirects)
	fmt.Fprintf(w, "  failures past recovery: %d fetches, %d copyouts (EOM retries: %d)\n",
		st.FetchFaults, st.CopyoutFaults, st.EOMRetries)
	fmt.Fprintf(w, "  retired tertiary segments (bad media, contents restaged): %d\n",
		hl.RetiredSegments())
}

// Recovery renders how the last mount recovered: the checkpoint it
// anchored on, the roll-forward extent and why replay stopped, namespace
// repair, the cache-directory rebuild, and tertiary retirement. All
// fields are zero after a fresh format.
func Recovery(w io.Writer, ri lfs.RecoveryInfo, ms core.MountStats, retired int64) {
	fmt.Fprintln(w, "Mount recovery report")
	fmt.Fprintf(w, "  checkpoint:    serial %d (table region %d), taken t=%.2fs, log head seg %d off %d\n",
		ri.CheckpointSerial, ri.Region, sim.Time(ri.CheckpointTime).Seconds(), ri.CheckpointSeg, ri.CheckpointOff)
	fmt.Fprintf(w, "  roll-forward:  %d psegs / %d blocks replayed, %d inode-map entries advanced\n",
		ri.PsegsReplayed, ri.BlocksReplayed, ri.InodesRecovered)
	fmt.Fprintf(w, "                 replay stopped at seg %d off %d: %s\n", ri.StopSeg, ri.StopOff, ri.StopReason)
	fmt.Fprintf(w, "  namespace:     %d dangling directory entries dropped\n", ri.DanglingDropped)
	fmt.Fprintf(w, "  cache rebuild: %d lines rebound from the usage table, %d staging copy-outs rescheduled,\n",
		ms.LinesRebound, ms.StagingRescheduled)
	fmt.Fprintf(w, "                 %d torn staging lines dropped, %d pool segments self-healed\n",
		ms.TornLinesDropped, ms.PoolSelfHealed)
	fmt.Fprintf(w, "  tertiary:      %d segments retired to no-store (contents restaged)\n", retired)
}

// DataPath narrates a demand fetch through the layered architecture of
// Figure 5: file system -> block map driver -> segment cache -> tertiary
// driver -> service process -> I/O server -> Footprint -> device.
func DataPath(p *sim.Proc, w io.Writer, hl *core.HighLight) error {
	fmt.Fprintln(w, "Layered architecture: demand-fetch request flow (Figure 5)")
	f, err := hl.FS.Create(p, "/figure5-demo")
	if err != nil {
		return err
	}
	data := make([]byte, hl.Amap.SegBlocks()*lfs.BlockSize/2)
	if _, err := f.WriteAt(p, data, 0); err != nil {
		return err
	}
	if _, err := hl.MigrateFiles(p, []uint32{f.Inum()}, false); err != nil {
		return err
	}
	if err := hl.CompleteMigration(p); err != nil {
		return err
	}
	hl.FS.DropFileBuffers(p, f.Inum())
	if _, err := hl.Svc.EjectAll(); err != nil {
		return err
	}
	refs, err := hl.FS.FileBlockRefs(p, f.Inum())
	if err != nil || len(refs) == 0 {
		return fmt.Errorf("dump: no refs for demo file: %v", err)
	}
	tseg := hl.Amap.SegOf(refs[0].Addr)
	tag, _ := hl.Amap.TertIndex(tseg)
	d, v, vs, _ := hl.Amap.Loc(tseg)
	o := hl.Obs
	fpBefore, ioBefore := o.CatTotal("fp.read"), o.CatTotal("io.write")
	t0 := p.Now()
	buf := make([]byte, lfs.BlockSize)
	if _, err := f.ReadAt(p, buf, 0); err != nil {
		return err
	}
	fpRead := o.CatTotal("fp.read") - fpBefore
	ioWrite := o.CatTotal("io.write") - ioBefore
	line, _ := hl.Cache.Peek(tag)
	steps := []string{
		fmt.Sprintf("application:   read() on /figure5-demo (block addr %d)", refs[0].Addr),
		"HighLight FS:  inode -> block pointer is a tertiary address",
		fmt.Sprintf("block map:     segment %d is tertiary (index %d); cache miss", tseg, tag),
		"tertiary drv:  queue demand fetch, wake service process, sleep",
		"service proc:  route the fetch to the closest copy's library; no cache line is bound yet",
		fmt.Sprintf("I/O server:    Footprint.LendSegment(dev %d, vol %d, seg %d)  [%.2fs in Footprint]",
			d, v, vs, fpRead.Seconds()),
		fmt.Sprintf("I/O server:    data in hand: select reusable disk segment %d as cache line", line.DiskSeg),
		fmt.Sprintf("I/O server:    write segment image to raw disk            [%.2fs writing cache line]",
			ioWrite.Seconds()),
		"service proc:  register cache line, call kernel to restart the I/O",
		fmt.Sprintf("block map:     re-dispatch to cached copy; request completes in %.2fs total", (p.Now() - t0).Seconds()),
	}
	for _, s := range steps {
		fmt.Fprintf(w, "  %s\n", s)
	}
	return nil
}
