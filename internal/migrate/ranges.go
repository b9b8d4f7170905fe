package migrate

import (
	"sort"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// Block-range tracking (§5.2): keeping information for each block on disk
// would be exorbitantly expensive, so the tracker keeps access *ranges*
// within each file, with the potential to resolve down to block
// granularity. Sequentially and completely accessed files stay at a single
// record; database-style files fragment into per-region records. A cap on
// records per file bounds the bookkeeping: when exceeded, the two ranges
// with the most similar access times merge (the dynamic-granularity
// tradeoff the paper describes).

// accessRange is one tracked extent [Start, End) with its last access.
type accessRange struct {
	Start, End int32
	Last       sim.Time
}

// maxRangeRecords caps the records kept per file.
const maxRangeRecords = 16

// RangeTracker accumulates per-file access ranges, fed from the file
// system's OnAccess hook.
type RangeTracker struct {
	k     *sim.Kernel
	files map[uint32][]accessRange
}

// NewRangeTracker returns a tracker; wire Hook into lfs.FS.OnAccess.
func NewRangeTracker(k *sim.Kernel) *RangeTracker {
	return &RangeTracker{k: k, files: make(map[uint32][]accessRange)}
}

// Hook is the lfs.FS.OnAccess adapter.
func (t *RangeTracker) Hook(inum uint32, start, end int32, write bool) {
	t.record(inum, start, end, t.k.Now())
}

// record notes an access of [start, end) at time now. Overlapping pieces
// of older ranges keep their own timestamps; the accessed extent gets now.
func (t *RangeTracker) record(inum uint32, start, end int32, now sim.Time) {
	if end <= start {
		return
	}
	old := t.files[inum]
	var out []accessRange
	for _, r := range old {
		if r.End <= start || r.Start >= end {
			out = append(out, r)
			continue
		}
		// Keep the non-overlapping flanks with their old timestamp.
		if r.Start < start {
			out = append(out, accessRange{r.Start, start, r.Last})
		}
		if r.End > end {
			out = append(out, accessRange{end, r.End, r.Last})
		}
	}
	out = append(out, accessRange{start, end, now})
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	// Coalesce adjacent ranges with identical timestamps.
	merged := out[:1]
	for _, r := range out[1:] {
		last := &merged[len(merged)-1]
		if r.Start == last.End && r.Last == last.Last {
			last.End = r.End
		} else {
			merged = append(merged, r)
		}
	}
	// Enforce the record cap by merging the adjacent pair that loses the
	// least ranking information: timestamp difference weighted by the
	// spans involved. Span weighting matters — collapsing two tiny
	// fragments with hour-apart stamps costs almost nothing, while
	// absorbing a thousand-block dormant region into a hot neighbour
	// would mislabel all of it.
	for len(merged) > maxRangeRecords {
		best := -1
		var bestCost float64
		for i := 0; i+1 < len(merged); i++ {
			d := merged[i+1].Last - merged[i].Last
			if d < 0 {
				d = -d
			}
			span := float64(merged[i].End-merged[i].Start) + float64(merged[i+1].End-merged[i+1].Start)
			cost := float64(d) * span
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		a, b := merged[best], merged[best+1]
		if b.Last > a.Last {
			a.Last = b.Last // merged record keeps the newer access
		}
		a.End = b.End // subsumes any gap between the records
		merged = append(merged[:best], append([]accessRange{a}, merged[best+2:]...)...)
	}
	t.files[inum] = merged
}

// ColdRefs is block-based migration (§5.2): it filters a file's block refs
// down to those in ranges last accessed at least minAge ago, letting old,
// unreferenced data within a file migrate while active data in the same file
// remain on secondary storage (the database-file scenario). Blocks never
// recorded (e.g. written before tracking started) count as cold. Indirect
// blocks are included only when every tracked range is cold (they cover the
// whole file).
func (t *RangeTracker) ColdRefs(p *sim.Proc, hl *core.HighLight, inum uint32, minAge sim.Time) ([]lfs.BlockRef, error) {
	refs, err := hl.FS.FileBlockRefs(p, inum)
	if err != nil {
		return nil, err
	}
	now := p.Now()
	ranges := t.files[inum]
	hot := func(lbn int32) bool {
		for _, r := range ranges {
			if lbn >= r.Start && lbn < r.End {
				return now-r.Last < minAge
			}
		}
		return false
	}
	anyHot := false
	for _, r := range ranges {
		if now-r.Last < minAge {
			anyHot = true
			break
		}
	}
	var cold []lfs.BlockRef
	for _, r := range refs {
		if r.Lbn < 0 {
			if !anyHot {
				cold = append(cold, r)
			}
			continue
		}
		if !hot(r.Lbn) {
			cold = append(cold, r)
		}
	}
	return cold, nil
}
