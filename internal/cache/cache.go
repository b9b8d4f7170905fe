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
	"slices"
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
	// ErrEvictUnknown marks an Evict of a line not in the directory.
	ErrEvictUnknown = errors.New("cache: evicting unknown line")
)

// Policy selects eviction victims.
type Policy int

const (
	// SLRU, the default, is segmented LRU: a line enters a probationary
	// segment, a hit moves it to the recent end of a protected segment capped
	// at two thirds of the capacity, and the protected line that overflows the
	// cap goes back to the recent end of the probationary one. The victim is
	// the least-recently-used probationary line, so lines read once (§10's
	// "least-worthy" subset, bounded) cannot push out lines read again.
	SLRU Policy = iota
	// LRU evicts the least-recently-used clean line.
	LRU
	// FIFO evicts the oldest-fetched clean line.
	FIFO
	// Random evicts a uniformly random clean line.
	Random
)

// protectedCap is how many of n lines SLRU's protected segment may hold.
func protectedCap(n int) int { return n * 2 / 3 }

func (p Policy) String() string {
	switch p {
	case SLRU:
		return "slru"
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
	LastUse   sim.Time // when it last moved to the recent end of its segment
	protected bool     // SLRU: hit since it entered the probationary segment
	ahead     bool     // fetched with no reader waiting, and not looked up since
}

// Stats counts cache activity. Hits and Misses count Lookup calls, which
// only the block map makes, once per read of a tertiary segment: a read that
// has to demand-fetch its segment is one miss and no hit, whether the reader
// waited holding the file system lock and read the line the fetch returned,
// or released the lock and issued the read again after the fetch (that
// second consultation of the directory, like the service process's own
// residency checks, is a Peek). Hits+Misses is therefore the number of
// segment reads through the block map, and Misses the number of those that
// waited for tertiary storage. Segments brought in without a read (the
// tertiary cleaner, repair: Peek, then DemandFetch) count as Inserts only.
//
// Promotions and Demotions count SLRU's moves into and out of the protected
// segment. Refetches counts inserts of a tag that replacement (Victim, then
// Evict) threw out within the last Capacity such evictions: fetches a larger
// or better-managed cache would not have made.
type Stats struct {
	Hits, Misses    int64
	Inserts, Evicts int64
	StagingLines    int64

	Promotions, Demotions int64
	Refetches             int64
	PrefetchUnused        int64 // lines fetched ahead of any reader, evicted before a Lookup found them
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
	nprot    int // lines in SLRU's protected segment
	rng      *sim.RNG
	stats    Stats
	obs      *obs.Obs // nil = not instrumented
	occupied *obs.Gauge
	heat     *attr.Table // nil = no attribution

	// What replacement threw out last, for Stats.Refetches only: the tags of
	// the last Capacity such evictions, oldest first, and Victim's latest
	// answer, by which Evict tells replacement from an ejection.
	gone   []int
	chosen *Line

	// Bind is told every change of a disk segment's binding: Insert binds
	// seg to tag, Unstage clears the staging bit, Evict and Release unbind it
	// (tag -1). The directory is the only writer of bindings; the core layer
	// installs Bind to persist them in the segment usage table, which mount
	// rebuilds the directory from. It must not block (the I/O processes call
	// it); New sets a no-op.
	Bind func(seg addr.SegNo, tag int, staging bool)
}

// New returns a cache over the given pre-claimed disk segments.
func New(policy Policy, pool []addr.SegNo, seed uint64) *Cache {
	c := &Cache{
		policy:   policy,
		lines:    make(map[int]*Line),
		capacity: len(pool),
		rng:      sim.NewRNG(seed),
		Bind:     func(addr.SegNo, int, bool) {},
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
// evictions emit instant events on the "cache" track, it adopts six of
// the Stats counts as its counters, and gets an occupied-lines gauge.
func (c *Cache) SetObs(o *obs.Obs) {
	c.obs = o
	c.occupied = o.Gauge("cache.lines")
	o.Adopt("cache.hits", &c.stats.Hits)
	o.Adopt("cache.misses", &c.stats.Misses)
	o.Adopt("cache.refetches", &c.stats.Refetches)
	o.Adopt("cache.promotions", &c.stats.Promotions)
	o.Adopt("cache.demotions", &c.stats.Demotions)
	o.Adopt("cache.prefetch_unused", &c.stats.PrefetchUnused)
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
		c.heat.Touch(tag, attr.Miss, now)
		return nil, false
	}
	c.touch(l, now)
	l.ahead = false
	c.stats.Hits++
	c.obs.Instant("cache", "cache.hit", "hit", obs.Arg{Key: "tag", Val: int64(tag)})
	c.heat.Touch(tag, attr.Hit, now)
	return l, true
}

// Prefetched marks l as fetched with no reader waiting for it: evicted
// before a Lookup finds it, it counts in PrefetchUnused.
func (c *Cache) Prefetched(l *Line) { l.ahead = true }

// Peek finds a line without touching recency or statistics.
func (c *Cache) Peek(tag int) (*Line, bool) {
	l, ok := c.lines[tag]
	return l, ok
}

// Insert binds a pool segment to tag and returns the new line. The caller
// must have obtained seg from TakeFree, TakeSeg or a prior Evict. It returns
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
	}
	c.lines[tag] = l
	c.Bind(seg, tag, staging)
	c.stats.Inserts++
	if !staging && slices.Contains(c.gone, tag) {
		c.stats.Refetches++
	}
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

// TakeSeg claims the given pool segment: how mount rebinds the lines the
// checkpointed directory names.
func (c *Cache) TakeSeg(seg addr.SegNo) {
	if i := slices.Index(c.free, seg); i >= 0 {
		c.free = slices.Delete(c.free, i, i+1)
	}
}

// touch records a hit on l. Under SLRU any hit promotes: the pointer-block
// read and the data read of one request already make two references, which
// would defeat a "second reference" rule, and a cold line promoted that way is
// aged back out by the demotions that later promotions cause.
func (c *Cache) touch(l *Line, now sim.Time) {
	l.LastUse = now
	if c.policy != SLRU {
		return
	}
	if !l.protected {
		l.protected = true
		c.nprot++
		c.stats.Promotions++
	}
	if c.nprot <= protectedCap(c.capacity) {
		return
	}
	// Over the cap: the protected LRU line (l itself when the cap is 0) goes
	// to the recent end of the probationary segment.
	var d *Line
	for _, x := range c.lines {
		if x.protected && (d == nil || c.older(x, d)) {
			d = x
		}
	}
	d.protected = false
	d.LastUse = now
	c.nprot--
	c.stats.Demotions++
}

// older reports whether a comes before b in eviction order: probationary
// before protected, then by the policy's age, then by tag (lines of one
// instant; keeps the order independent of map iteration).
func (c *Cache) older(a, b *Line) bool {
	if a.protected != b.protected {
		return b.protected
	}
	at, bt := a.LastUse, b.LastUse
	if c.policy == FIFO {
		at, bt = a.FetchTime, b.FetchTime
	}
	if at != bt {
		return at < bt
	}
	return a.Tag < b.Tag
}

// Evictable reports whether l may be thrown out: not staging (the sole copy
// of migrated data) and not pinned by a reader or copy-out.
func (c *Cache) Evictable(l *Line) bool {
	return !l.Staging && l.Pins == 0
}

// Victim selects an evictable line per the policy: never staging (the sole
// copy of migrated data) or pinned. Returns nil if none qualifies.
func (c *Cache) Victim() *Line {
	var pick *Line
	if c.policy == Random {
		pick = c.randomVictim()
	} else {
		for _, l := range c.lines {
			if c.Evictable(l) && (pick == nil || c.older(l, pick)) {
				pick = l
			}
		}
	}
	c.chosen = pick
	return pick
}

// randomVictim draws uniformly among the evictable lines, in tag order so
// that the seeded draw does not depend on map iteration.
func (c *Cache) randomVictim() *Line {
	var cands []*Line
	for _, l := range c.lines {
		if c.Evictable(l) {
			cands = append(cands, l)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Tag < cands[j].Tag })
	return cands[c.rng.Intn(len(cands))]
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
	if c.lines[l.Tag] != l {
		return 0, fmt.Errorf("%w: tag %d", ErrEvictUnknown, l.Tag)
	}
	delete(c.lines, l.Tag)
	c.Bind(l.DiskSeg, -1, false)
	if l.protected {
		c.nprot--
	}
	if l == c.chosen {
		if c.gone = append(c.gone, l.Tag); len(c.gone) > c.capacity {
			c.gone = c.gone[1:]
		}
	}
	c.chosen = nil
	c.stats.Evicts++
	if l.ahead {
		c.stats.PrefetchUnused++
	}
	c.obs.Instant("cache", "cache.evict", "evict",
		obs.Arg{Key: "tag", Val: int64(l.Tag)}, obs.Arg{Key: "seg", Val: int64(l.DiskSeg)})
	c.occupied.Set(int64(len(c.lines)))
	c.heat.Touch(l.Tag, attr.Evict, c.obs.Now())
	return l.DiskSeg, nil
}

// Release returns a disk segment to the free pool, unbound (used when a line
// is dropped without immediate reuse).
func (c *Cache) Release(seg addr.SegNo) {
	c.free = append(c.free, seg)
	c.Bind(seg, -1, false)
}

// Unstage marks a staging line clean: its image has reached tertiary
// storage, or it is being dropped.
func (c *Cache) Unstage(l *Line) {
	l.Staging = false
	c.Bind(l.DiskSeg, l.Tag, false)
}

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
