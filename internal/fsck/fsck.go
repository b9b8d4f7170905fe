// Package fsck verifies the consistency of a HighLight file system:
// namespace reachability, block-pointer validity, log-structure integrity
// (summary checksums), segment-usage accounting, cache-directory
// agreement, and tertiary bookkeeping. The paper leans on the log's
// checksummed structure for recovery (§3) and worries about metadata
// stranded across media (§8.2); Check makes those invariants observable.
package fsck

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// Problem is one detected inconsistency.
type Problem struct {
	Where string
	What  string
}

func (p Problem) String() string { return p.Where + ": " + p.What }

// Report summarizes a check.
type Report struct {
	Files         int
	Dirs          int
	BlockPtrs     int
	DiskBlocks    int
	TertBlocks    int
	SegsParsed    int
	TsegsScrubbed int
	Problems      []Problem
	VolumesCross  map[uint32][]int // inum -> volumes its blocks span (when >1)
}

func (r *Report) addf(where, format string, args ...interface{}) {
	r.Problems = append(r.Problems, Problem{Where: where, What: fmt.Sprintf(format, args...)})
}

// OK reports whether no problems were found.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// Summary renders a one-line result.
func (r *Report) Summary() string {
	return fmt.Sprintf("fsck: %d files, %d dirs, %d block pointers (%d disk, %d tertiary), %d segments parsed, %d problems",
		r.Files, r.Dirs, r.BlockPtrs, r.DiskBlocks, r.TertBlocks, r.SegsParsed, len(r.Problems))
}

// Check runs all consistency passes. It takes the file system lock
// repeatedly (via public FS methods) and may demand-fetch tertiary
// segments when verifying migrated metadata.
func Check(p *sim.Proc, hl *core.HighLight) (*Report, error) {
	r := &Report{VolumesCross: make(map[uint32][]int)}

	// Pass 1: namespace walk — every reachable file's pointers must be
	// valid addresses, and per-file volume spread is recorded (§8.2's
	// self-containment guidance).
	type entry struct {
		path string
		inum uint32
		dir  bool
	}
	var files []entry
	err := hl.FS.Walk(p, "/", func(path string, fi lfs.FileInfo) error {
		files = append(files, entry{path, fi.Inum, fi.Type == lfs.TypeDir})
		return nil
	})
	if err != nil {
		return r, err
	}
	liveByDiskSeg := map[addr.SegNo]uint32{}
	liveByTseg := map[int]uint32{}
	tertAddrs := map[int][]addr.BlockNo{} // reachable blocks per tseg, for the pass-5 scrub
	seen := map[uint32]string{}
	for _, e := range files {
		if prev, dup := seen[e.inum]; dup {
			r.addf(e.path, "inode %d also reachable as %s (hard links are unsupported)", e.inum, prev)
			continue
		}
		seen[e.inum] = e.path
		if e.dir {
			r.Dirs++
		} else {
			r.Files++
		}
		refs, err := hl.FS.FileBlockRefs(p, e.inum)
		if err != nil {
			r.addf(e.path, "listing blocks: %v", err)
			continue
		}
		vols := map[int]bool{}
		for _, ref := range refs {
			r.BlockPtrs++
			if !hl.Amap.Valid(ref.Addr) {
				r.addf(e.path, "lbn %d points at invalid address %d", ref.Lbn, ref.Addr)
				continue
			}
			seg := hl.Amap.SegOf(ref.Addr)
			if hl.Amap.IsDiskSeg(seg) {
				r.DiskBlocks++
				liveByDiskSeg[seg] += lfs.BlockSize
			} else {
				r.TertBlocks++
				idx, _ := hl.Amap.TertIndex(seg)
				liveByTseg[idx] += lfs.BlockSize
				tertAddrs[idx] = append(tertAddrs[idx], ref.Addr)
				_, v, _, _ := hl.Amap.Loc(seg)
				vols[v] = true
			}
		}
		// Inode location counts toward the volume spread too.
		ie := hl.FS.Imap(e.inum)
		if iseg := hl.Amap.SegOf(ie.Addr); hl.Amap.IsTertiarySeg(iseg) {
			if idx, ok := hl.Amap.TertIndex(iseg); ok {
				liveByTseg[idx] += lfs.InodeSize
				tertAddrs[idx] = append(tertAddrs[idx], ie.Addr)
			}
			_, v, _, _ := hl.Amap.Loc(iseg)
			vols[v] = true
		} else if hl.Amap.IsDiskSeg(iseg) {
			liveByDiskSeg[iseg] += lfs.InodeSize
		}
		if len(vols) > 1 {
			var vv []int
			for v := range vols {
				vv = append(vv, v)
			}
			sort.Ints(vv)
			r.VolumesCross[e.inum] = vv
		}
	}

	// Pass 2: log structure — every dirty, non-cached disk segment must
	// parse with valid checksums, and the usage table must not
	// under-count the live bytes found by the walk (over-counting is
	// normal: dead blocks and metadata age out via the cleaner).
	for s := hl.FS.ReservedSegs(); s < hl.Amap.DiskSegs(); s++ {
		su := hl.FS.SegUsage(addr.SegNo(s))
		if su.Flags&lfs.SegDirty == 0 || su.Flags&lfs.SegCached != 0 {
			continue
		}
		sc, err := hl.FS.ReadSegment(p, addr.SegNo(s))
		if err != nil {
			r.addf(fmt.Sprintf("segment %d", s), "unreadable: %v", err)
			continue
		}
		r.SegsParsed += len(sc.Psegs)
		if live := liveByDiskSeg[addr.SegNo(s)]; su.LiveBytes < live {
			r.addf(fmt.Sprintf("segment %d", s),
				"usage table says %d live bytes but %d reachable bytes reside here", su.LiveBytes, live)
		}
	}

	// Pass 3: cache directory agreement — every cache line's disk
	// segment must be flagged SegCached with the matching tag, and vice
	// versa for bound cache segments.
	lineFor := map[addr.SegNo]int{}
	for _, l := range hl.Cache.Lines() {
		lineFor[l.DiskSeg] = l.Tag
		su := hl.FS.SegUsage(l.DiskSeg)
		if su.Flags&lfs.SegCached == 0 {
			r.addf(fmt.Sprintf("cache line %d", l.Tag), "disk segment %d not flagged cached", l.DiskSeg)
		} else if su.CacheTag != uint32(l.Tag) {
			r.addf(fmt.Sprintf("cache line %d", l.Tag), "segment %d tagged %d in the usage table", l.DiskSeg, su.CacheTag)
		}
	}
	for s := 0; s < hl.Amap.DiskSegs(); s++ {
		su := hl.FS.SegUsage(addr.SegNo(s))
		if su.Flags&lfs.SegCached == 0 || su.CacheTag == lfs.NilCacheTag {
			continue
		}
		if tag, ok := lineFor[addr.SegNo(s)]; !ok {
			r.addf(fmt.Sprintf("segment %d", s), "tagged as cache of tertiary segment %d but no directory line exists", su.CacheTag)
		} else if tag != int(su.CacheTag) {
			r.addf(fmt.Sprintf("segment %d", s), "directory says tag %d, usage table says %d", tag, su.CacheTag)
		}
	}

	// Pass 4: tertiary bookkeeping — reachable tertiary bytes must be
	// covered by the tsegfile's live counts.
	for idx, live := range liveByTseg {
		su := hl.FS.TsegUsage(idx)
		if su.Flags&lfs.SegDirty == 0 {
			r.addf(fmt.Sprintf("tseg %d", idx), "holds %d reachable bytes but is not marked written", live)
		}
		if su.LiveBytes < live {
			r.addf(fmt.Sprintf("tseg %d", idx),
				"tsegfile says %d live bytes but %d reachable bytes reside here", su.LiveBytes, live)
		}
	}

	// Pass 5: tertiary scrub — every reachable tertiary block must sit
	// inside a checksum-valid partial segment of its segment's image.
	// A segment bound to a staging cache line exists only on that line
	// (copy-out pending), so the line is scrubbed; every other segment
	// is read straight from the medium — deliberately bypassing the
	// cache, because a torn media copy (power cut mid WriteSegment)
	// under an intact cache line is exactly the latent fault a scrub
	// must find before the cache line ages out.
	var idxs []int
	for idx := range tertAddrs {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	buf := make([]byte, hl.Amap.SegBlocks()*lfs.BlockSize) // a staging line's image, or a never-written segment's zeroes
	for _, idx := range idxs {
		seg := hl.Amap.SegForIndex(idx)
		var raw []byte
		var src string
		if l, ok := hl.Cache.Peek(idx); ok && l.Staging {
			src, raw = "staging line", buf
			if err := hl.FS.ReadRawBlocks(p, hl.Amap.BlockOf(l.DiskSeg, 0), raw); err != nil {
				r.addf(fmt.Sprintf("tseg %d", idx), "reading staging image: %v", err)
				continue
			}
		} else {
			src = "medium"
			d, v, s, ok := hl.Amap.Loc(seg)
			if !ok {
				r.addf(fmt.Sprintf("tseg %d", idx), "no media location")
				continue
			}
			var err error
			if raw, err = hl.Jukeboxes()[d].LendSegment(p, v, s); err != nil {
				r.addf(fmt.Sprintf("tseg %d", idx), "reading medium: %v", err)
				continue
			}
			if raw == nil {
				raw = buf
				clear(raw)
			}
		}
		r.TsegsScrubbed++
		sc := hl.FS.ParseSegment(seg, raw)
		valid := make([]bool, hl.Amap.SegBlocks())
		end := 0 // where the checksum-valid chain ends
		for i, sum := range sc.Psegs {
			end = sc.Offsets[i] + int(sum.NBlocks)
			for b := sc.Offsets[i] + 1; b < end; b++ {
				valid[b] = true
			}
		}
		why := "torn or corrupt segment"
		if sc.Torn {
			why = fmt.Sprintf("torn partial segment at offset %d", end)
		}
		for _, a := range tertAddrs[idx] {
			if off := hl.Amap.OffOf(a); !valid[off] {
				r.addf(fmt.Sprintf("tseg %d", idx),
					"reachable block at offset %d lies outside the checksum-valid psegs of the %s (%s)", off, src, why)
			}
		}
	}

	return r, nil
}

// Write renders the report including every problem.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintln(w, r.Summary())
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  %s\n", p)
	}
	if len(r.VolumesCross) > 0 {
		fmt.Fprintf(w, "  note: %d files span multiple tertiary volumes (see §8.2 on metadata self-containment)\n",
			len(r.VolumesCross))
	}
}
