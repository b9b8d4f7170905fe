// Package cache implements HighLight's disk-resident segment cache (§4,
// §5.4): whole tertiary segments staged on disk segments, managed by a
// cache directory keyed by tertiary segment index. Cached lines are almost
// always read-only copies of the tertiary-resident version and may be
// discarded at any time; the exception is staging segments being assembled
// before transfer, which stay pinned until copied out.
package cache

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Typed sentinel errors, errors.Is-matchable so that directory
// inconsistencies found while rebuilding state from media (mount after a
// crash, fsck) surface as mount/check failures instead of crashing the
// process.
var (
	// ErrDuplicateLine marks an Insert for a tertiary segment that already
	// has a line — two disk segments claiming the same tertiary segment.
	ErrDuplicateLine = errors.New("cache: duplicate line for tertiary segment")
	// ErrEvictStaging marks an Evict of a staging line, which would lose
	// the sole copy of migrated data.
	ErrEvictStaging = errors.New("cache: evicting a staging line would lose the sole copy")
	// ErrEvictPinned marks an Evict of a line with active readers or an
	// in-flight copyout.
	ErrEvictPinned = errors.New("cache: evicting a pinned line")
	// ErrEvictLocked marks an Evict of a line whose tertiary segment is
	// HSM-pinned: the hierarchical storage manager promised the data stays
	// staged, so the evictor must route around it.
	ErrEvictLocked = errors.New("cache: evicting an HSM-pinned line")
	// ErrEvictUnknown marks an Evict of a line not in the directory.
	ErrEvictUnknown = errors.New("cache: evicting unknown line")
)

// Policy selects eviction victims.
type Policy int

const (
	// LRU evicts the least-recently-used clean line.
	LRU Policy = iota
	// FIFO evicts the oldest-fetched clean line.
	FIFO
	// Random evicts a uniformly random clean line.
	Random
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return "unknown"
}

// Line is one cache line: a disk segment holding a copy of one tertiary
// segment.
type Line struct {
	Tag     int        // tertiary segment index
	DiskSeg addr.SegNo // the disk segment holding the copy
	Staging bool       // freshly assembled, not yet on tertiary storage
	Pins    int        // active readers / in-flight copyout

	FetchTime sim.Time // when the line was filled (FIFO)
	LastUse   sim.Time // last access (LRU)
	Worthy    bool     // false until re-referenced (§10 bypass variant)
}

// Stats counts cache activity. Hits and Misses count Lookup calls, which
// only the block map makes, once per read of a tertiary segment: a read that
// has to demand-fetch its segment is one miss and no hit, whether the reader
// waited holding the file system lock and read the line the fetch returned,
// or released the lock and issued the read again after the fetch (that
// second consultation of the directory, like the service process's own
// residency checks, is a Peek). Hits+Misses is therefore the number of
// segment reads through the block map, and Misses the number of those that
// waited for tertiary storage. Segments brought in without a read (HSM
// stage-in, the tertiary cleaner, repair: Peek, then DemandFetch) count as
// Inserts only.
type Stats struct {
	Hits, Misses    int64
	Inserts, Evicts int64
	StagingLines    int64
}

// Cache is the segment cache directory. It owns a fixed pool of disk
// segments claimed from the file system at mount time (the static cache
// split of §6.4) and is safe to use from any sim process: all operations
// complete without blocking.
type Cache struct {
	policy   Policy
	lines    map[int]*Line
	free     []addr.SegNo
	capacity int
	rng      *sim.RNG
	stats    Stats
	obs      *obs.Obs // nil = not instrumented
	occupied *obs.Gauge
	heat     *attr.Table // nil = no attribution

	// BypassFirstRef, when set, marks newly fetched lines "least worthy":
	// they are preferred eviction victims until referenced again (the
	// §10 future-work variant approximating cache-bypassing reads).
	BypassFirstRef bool

	// Locked, when set, reports whether a tertiary segment is HSM-pinned:
	// Victim never selects a locked line and Evict refuses one with
	// ErrEvictLocked. Installed by the core layer so the directory itself
	// stays free of HSM state.
	Locked func(tag int) bool
}

// New returns a cache over the given pre-claimed disk segments.
func New(policy Policy, pool []addr.SegNo, seed uint64) *Cache {
	c := &Cache{
		policy:   policy,
		lines:    make(map[int]*Line),
		capacity: len(pool),
		rng:      sim.NewRNG(seed),
	}
	c.free = append(c.free, pool...)
	return c
}

// Capacity reports the total line count (free + used).
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the number of occupied lines.
func (c *Cache) Len() int { return len(c.lines) }

// FreeLines reports the number of unoccupied pool segments.
func (c *Cache) FreeLines() int { return len(c.free) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetObs attaches an observability domain: lookups, inserts, and
// evictions emit instant events on the "cache" track, hit/miss
// counters, and an occupied-lines gauge.
func (c *Cache) SetObs(o *obs.Obs) {
	c.obs = o
	c.occupied = o.Gauge("cache.lines")
}

// SetAttr attaches a heat-attribution table: every hit, miss, and
// eviction is attributed to the tertiary segment it touched.
func (c *Cache) SetAttr(t *attr.Table) { c.heat = t }

// Lookup finds the line caching tertiary segment tag, updating recency.
func (c *Cache) Lookup(tag int, now sim.Time) (*Line, bool) {
	l, ok := c.lines[tag]
	if !ok {
		c.stats.Misses++
		c.obs.Instant("cache", "cache.miss", "miss", obs.Arg{Key: "tag", Val: int64(tag)})
		c.obs.Counter("cache.misses").Add(1)
		c.heat.Touch(tag, attr.Miss, now)
		return nil, false
	}
	l.LastUse = now
	l.Worthy = true
	c.stats.Hits++
	c.obs.Instant("cache", "cache.hit", "hit", obs.Arg{Key: "tag", Val: int64(tag)})
	c.obs.Counter("cache.hits").Add(1)
	c.heat.Touch(tag, attr.Hit, now)
	return l, true
}

// Peek finds a line without touching recency or statistics.
func (c *Cache) Peek(tag int) (*Line, bool) {
	l, ok := c.lines[tag]
	return l, ok
}

// Insert binds a pool segment to tag and returns the new line. The caller
// must have obtained seg from TakeFree or a prior Evict. It returns
// ErrDuplicateLine if tag already has a line (e.g. a corrupt cache
// directory reconstructed from media).
func (c *Cache) Insert(tag int, seg addr.SegNo, staging bool, now sim.Time) (*Line, error) {
	if _, dup := c.lines[tag]; dup {
		return nil, fmt.Errorf("%w: tag %d (disk segment %d)", ErrDuplicateLine, tag, seg)
	}
	l := &Line{
		Tag:       tag,
		DiskSeg:   seg,
		Staging:   staging,
		FetchTime: now,
		LastUse:   now,
		Worthy:    !c.BypassFirstRef,
	}
	c.lines[tag] = l
	c.stats.Inserts++
	if staging {
		c.stats.StagingLines++
	}
	c.obs.Instant("cache", "cache.insert", "insert",
		obs.Arg{Key: "tag", Val: int64(tag)}, obs.Arg{Key: "seg", Val: int64(seg)})
	c.occupied.Set(int64(len(c.lines)))
	return l, nil
}

// TakeFree claims an unoccupied pool segment, if any.
func (c *Cache) TakeFree() (addr.SegNo, bool) {
	if len(c.free) == 0 {
		return 0, false
	}
	s := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return s, true
}

// Victim selects an evictable line per the policy: never staging (the sole
// copy of migrated data) and never pinned. Returns nil if none qualifies.
func (c *Cache) Victim() *Line {
	var cands []*Line
	for _, l := range c.lines {
		if l.Staging || l.Pins > 0 {
			continue
		}
		if c.Locked != nil && c.Locked(l.Tag) {
			continue
		}
		cands = append(cands, l)
	}
	if len(cands) == 0 {
		return nil
	}
	// Unworthy (never re-referenced) lines go first regardless of policy.
	var pick *Line
	better := func(a, b *Line) bool {
		if a.Worthy != b.Worthy {
			return !a.Worthy
		}
		switch c.policy {
		case LRU:
			if a.LastUse != b.LastUse {
				return a.LastUse < b.LastUse
			}
		case FIFO:
			if a.FetchTime != b.FetchTime {
				return a.FetchTime < b.FetchTime
			}
		case Random:
			// Handled below.
		}
		return a.Tag < b.Tag // deterministic tiebreak
	}
	if c.policy == Random {
		// Still prefer unworthy lines; choose randomly among the rest.
		var unworthy []*Line
		for _, l := range cands {
			if !l.Worthy {
				unworthy = append(unworthy, l)
			}
		}
		if len(unworthy) > 0 {
			cands = unworthy
		}
		// cands was built from map iteration; order it before the draw or
		// the seeded RNG still yields run-dependent victims.
		sort.Slice(cands, func(i, j int) bool { return cands[i].Tag < cands[j].Tag })
		return cands[c.rng.Intn(len(cands))]
	}
	for _, l := range cands {
		if pick == nil || better(l, pick) {
			pick = l
		}
	}
	return pick
}

// Evict removes the line and returns its disk segment for reuse. It
// refuses — with a typed error — to evict staging, pinned, or unknown
// lines, so a bad eviction target found while rebuilding after a crash is
// reported instead of crashing the process.
func (c *Cache) Evict(l *Line) (addr.SegNo, error) {
	if l.Staging {
		return 0, fmt.Errorf("%w: tag %d (disk segment %d)", ErrEvictStaging, l.Tag, l.DiskSeg)
	}
	if l.Pins > 0 {
		return 0, fmt.Errorf("%w: tag %d (%d pins)", ErrEvictPinned, l.Tag, l.Pins)
	}
	if c.Locked != nil && c.Locked(l.Tag) {
		return 0, fmt.Errorf("%w: tag %d", ErrEvictLocked, l.Tag)
	}
	if c.lines[l.Tag] != l {
		return 0, fmt.Errorf("%w: tag %d", ErrEvictUnknown, l.Tag)
	}
	delete(c.lines, l.Tag)
	c.stats.Evicts++
	c.obs.Instant("cache", "cache.evict", "evict",
		obs.Arg{Key: "tag", Val: int64(l.Tag)}, obs.Arg{Key: "seg", Val: int64(l.DiskSeg)})
	c.occupied.Set(int64(len(c.lines)))
	c.heat.Touch(l.Tag, attr.Evict, c.obs.Now())
	return l.DiskSeg, nil
}

// Release returns a disk segment to the free pool (used when a line is
// dropped without immediate reuse).
func (c *Cache) Release(seg addr.SegNo) { c.free = append(c.free, seg) }

// Lines returns all occupied lines in tag order. The order is part of
// the contract: callers eject or restage in iteration order, and that
// order is observable (free-list reuse order, trace events), so it must
// not vary with map iteration.
func (c *Cache) Lines() []*Line {
	out := make([]*Line, 0, len(c.lines))
	for _, l := range c.lines {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}
