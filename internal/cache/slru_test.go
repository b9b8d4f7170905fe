package cache

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// refModel is segmented LRU written the obvious way: two lists of tags, oldest
// first, and the state that makes a line ineligible.
type refModel struct {
	cap        int
	prob, prot []int
	busy       map[int]*Line // the cache's own lines: Staging and Pins are read off them
}

func (m *refModel) hit(tag int) {
	if i := slices.Index(m.prob, tag); i >= 0 {
		m.prob = slices.Delete(m.prob, i, i+1)
	} else {
		i = slices.Index(m.prot, tag)
		m.prot = slices.Delete(m.prot, i, i+1)
	}
	m.prot = append(m.prot, tag)
	if len(m.prot) > m.cap {
		m.prob = append(m.prob, m.prot[0])
		m.prot = m.prot[1:]
	}
}

func (m *refModel) evictable(tag int) bool {
	l := m.busy[tag]
	return !l.Staging && l.Pins == 0
}

func (m *refModel) victim() (int, bool) {
	for _, list := range [][]int{m.prob, m.prot} {
		for _, tag := range list {
			if m.evictable(tag) {
				return tag, true
			}
		}
	}
	return 0, false
}

func (m *refModel) remove(tag int) {
	for _, list := range []*[]int{&m.prob, &m.prot} {
		if i := slices.Index(*list, tag); i >= 0 {
			*list = slices.Delete(*list, i, i+1)
		}
	}
	delete(m.busy, tag)
}

// TestSLRUAgainstReferenceModel drives a 30-line cache and the model with one
// seeded op stream and compares every victim; after every step the protected
// segment is within its cap, no tag or disk segment has two lines, and the
// cache is no fuller than its capacity.
func TestSLRUAgainstReferenceModel(t *testing.T) {
	const lines = 30
	rng := sim.NewRNG(1993)
	c := New(SLRU, pool(lines), 1)
	m := &refModel{cap: protectedCap(lines), busy: map[int]*Line{}}
	resident := func() int { // a seeded pick among the resident tags, in tag order
		ls := c.Lines()
		return ls[rng.Intn(len(ls))].Tag
	}
	var victims, fallbacks int
	for op := 0; op < 20000; op++ {
		now := sim.Time(op + 1) // strictly increasing: no two moves share an instant
		switch k := rng.Intn(9); {
		case k < 3: // a miss: take a line (free, else the victim's) and insert
			tag := rng.Intn(90)
			if _, ok := c.Peek(tag); ok {
				continue
			}
			seg, ok := c.TakeFree()
			if !ok {
				v := c.Victim()
				want, any := m.victim()
				if (v != nil) != any || (any && v.Tag != want) {
					t.Fatalf("op %d: victim %v, model says %d (%v)", op, v, want, any)
				}
				if v == nil {
					continue
				}
				victims++
				if v.protected {
					fallbacks++
				}
				var err error
				if seg, err = c.Evict(v); err != nil {
					t.Fatalf("op %d: evicting the victim: %v", op, err)
				}
				m.remove(v.Tag)
			}
			l, err := c.Insert(tag, seg, rng.Intn(5) == 0, now)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			m.prob, m.busy[tag] = append(m.prob, tag), l
		case k < 7: // a hit
			if c.Len() > 0 {
				tag := resident()
				c.Lookup(tag, now)
				m.hit(tag)
			}
		case k == 7: // a reader comes or goes
			if c.Len() > 0 {
				l := m.busy[resident()]
				l.Pins = 1 - l.Pins
			}
		case k == 8: // a copy-out completes
			if c.Len() > 0 {
				m.busy[resident()].Staging = false
			}
		}
		if c.Len() > c.Capacity() || c.Len()+c.FreeLines() != c.Capacity() {
			t.Fatalf("op %d: %d lines + %d free of %d", op, c.Len(), c.FreeLines(), c.Capacity())
		}
		nprot, segs := 0, map[int]bool{}
		for _, l := range c.Lines() {
			if l.protected {
				nprot++
			}
			if segs[int(l.DiskSeg)] {
				t.Fatalf("op %d: disk segment %d holds two lines", op, l.DiskSeg)
			}
			segs[int(l.DiskSeg)] = true
		}
		if nprot != c.nprot || nprot != len(m.prot) || nprot > m.cap {
			t.Fatalf("op %d: %d protected lines, counter %d, model %d, cap %d", op, nprot, c.nprot, len(m.prot), m.cap)
		}
		if v := c.Victim(); v != nil && (v.Staging || v.Pins > 0) {
			t.Fatalf("op %d: victim %d is staging or pinned", op, v.Tag)
		}
	}
	s := c.Stats()
	if victims < 1000 || fallbacks == 0 || s.Promotions == 0 || s.Demotions == 0 || s.Refetches == 0 {
		t.Fatalf("the stream exercised too little: %d victims, %d from the protected segment, %+v", victims, fallbacks, s)
	}
}

// traffic replays requests against a cache the way the block map and the
// service process do: a lookup, on a miss a line taken and the tag inserted,
// then touches-1 further lookups (a request reads the pointer block of a
// segment and then its data: two lookups; a segment staged in or read for one
// block: one). It counts the misses per tag.
type traffic struct {
	c      *Cache
	now    sim.Time
	misses map[int]int
}

func (tr *traffic) request(t *testing.T, tag, touches int) {
	t.Helper()
	tr.now++
	if _, ok := tr.c.Lookup(tag, tr.now); !ok {
		tr.misses[tag]++
		seg, free := tr.c.TakeFree()
		if !free {
			var err error
			if seg, err = tr.c.Evict(tr.c.Victim()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.c.Insert(tag, seg, false, tr.now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < touches; i++ {
		tr.now++
		tr.c.Lookup(tag, tr.now)
	}
}

// rounds visits every hot tag n times, two one-touch cold tags after each
// visit: 38 other tags between two visits of one hot tag, in a 20-line cache.
func (tr *traffic) rounds(t *testing.T, n int, hot []int, cold *int) {
	for ; n > 0; n-- {
		for _, h := range hot {
			tr.request(t, h, 2)
			for range 2 {
				*cold++
				tr.request(t, *cold, 1)
			}
		}
	}
}

func hotTags(from int) []int {
	hot := make([]int, 13) // what SLRU's protected segment holds of 20 lines
	for i := range hot {
		hot[i] = from + i
	}
	return hot
}

func (tr *traffic) missesOn(tags []int) (n int) {
	for _, tag := range tags {
		n += tr.misses[tag]
	}
	return n
}

// TestHotSetSurvivesOneTouchTraffic: 13 segments read again and again among
// segments read once. Segmented LRU fetches each hot segment once; plain LRU,
// where a hot line idle for 20 other references is the oldest, every time.
func TestHotSetSurvivesOneTouchTraffic(t *testing.T) {
	run := func(p Policy) int {
		tr := &traffic{c: New(p, pool(20), 1), misses: map[int]int{}}
		cold := 1000
		tr.rounds(t, 10, hotTags(0), &cold)
		return tr.missesOn(hotTags(0))
	}
	if got := run(SLRU); got != 13 {
		t.Errorf("segmented LRU fetched the 13 hot segments %d times in 10 rounds, want once each", got)
	}
	if got := run(LRU); got != 130 {
		t.Errorf("plain LRU fetched the hot segments %d times, want 130: the traffic no longer tells the policies apart", got)
	}
}

// TestShiftedHotSetTakesOver: the protected segment is bounded, so a new hot
// set displaces the old one as fast as it is referenced: one fetch per segment
// and then none. (An unbounded "worthy" bit fails this: once every resident
// line is marked, every newcomer is the next victim.)
func TestShiftedHotSetTakesOver(t *testing.T) {
	tr := &traffic{c: New(SLRU, pool(20), 1), misses: map[int]int{}}
	cold := 1000
	tr.rounds(t, 5, hotTags(0), &cold)
	tr.rounds(t, 5, hotTags(100), &cold)
	if got := tr.missesOn(hotTags(100)); got != 13 {
		t.Errorf("the new hot set was fetched %d times in 5 rounds, want once per segment", got)
	}
	for _, tag := range hotTags(100) {
		if l, ok := tr.c.Peek(tag); !ok || !l.protected {
			t.Errorf("new hot segment %d: resident %v, protected %v", tag, ok, ok && l.protected)
		}
	}
	for _, tag := range hotTags(0) {
		if _, ok := tr.c.Peek(tag); ok {
			t.Errorf("old hot segment %d still holds a line", tag)
		}
	}
}

// TestRefetchesCountsWhatReplacementThrewOut: an insert of a tag among the
// last Capacity replacement victims is a refetch; one ejected on request, or
// thrown out longer ago, is not.
func TestRefetchesCountsWhatReplacementThrewOut(t *testing.T) {
	tr := &traffic{c: New(SLRU, pool(4), 1), misses: map[int]int{}}
	for tag := range 5 { // 0 is replaced by 4
		tr.request(t, tag, 1)
	}
	tr.request(t, 0, 1) // replaces 1
	if got := tr.c.Stats().Refetches; got != 1 {
		t.Fatalf("Refetches = %d after re-inserting a victim, want 1", got)
	}
	l, _ := tr.c.Peek(4)
	seg, err := tr.c.Evict(l) // an ejection: no Victim call chose it
	if err != nil {
		t.Fatal(err)
	}
	tr.c.Release(seg)
	tr.request(t, 4, 1)
	for tag := 10; tag < 14; tag++ { // four more victims push 1 out of the ring
		tr.request(t, tag, 1)
	}
	tr.request(t, 1, 1)
	if got := tr.c.Stats().Refetches; got != 1 {
		t.Fatalf("Refetches = %d, want 1: an ejected tag or one replaced %d evictions ago counted", got, tr.c.Capacity()+1)
	}
}

// TestPrefetchUnusedCountsLinesNeverLookedUp: a line marked Prefetched and
// evicted before any Lookup found it counts in PrefetchUnused; one a Lookup
// found first, or one never marked, does not.
func TestPrefetchUnusedCountsLinesNeverLookedUp(t *testing.T) {
	c := New(SLRU, pool(4), 1)
	for tag := range 3 {
		seg, _ := c.TakeFree()
		l, err := c.Insert(tag, seg, false, sim.Time(tag))
		if err != nil {
			t.Fatal(err)
		}
		if tag < 2 {
			c.Prefetched(l)
		}
	}
	c.Lookup(1, 10)
	for tag := range 3 {
		l, _ := c.Peek(tag)
		if _, err := c.Evict(l); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().PrefetchUnused; got != 1 {
		t.Fatalf("PrefetchUnused = %d, want 1: only line 0 was fetched ahead and never looked up", got)
	}
}

// BenchmarkCacheVictim is replacement's row of `make bench-layers`: choosing
// the victim of a full 96-line cache, two thirds of it protected, is one pass
// over the directory and allocates nothing.
func BenchmarkCacheVictim(b *testing.B) {
	const lines = 96
	c := New(SLRU, pool(lines), 1)
	for tag := 0; tag < lines; tag++ {
		seg, _ := c.TakeFree()
		if _, err := c.Insert(tag, seg, false, sim.Time(tag)); err != nil {
			b.Fatal(err)
		}
		if tag%3 != 0 {
			c.Lookup(tag, sim.Time(lines+tag))
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.Victim() }); n != 0 {
		b.Fatalf("Victim allocates %v times per call, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Victim() == nil {
			b.Fatal("no victim in a cache of clean lines")
		}
	}
}
