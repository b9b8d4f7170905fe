package cache

import (
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/sim"
)

func pool(n int) []addr.SegNo {
	out := make([]addr.SegNo, n)
	for i := range out {
		out[i] = addr.SegNo(100 + i)
	}
	return out
}

func TestLookupMissAndInsert(t *testing.T) {
	c := New(LRU, pool(4), 1)
	if _, ok := c.Lookup(7, 0); ok {
		t.Fatal("hit on empty cache")
	}
	seg, ok := c.TakeFree()
	if !ok {
		t.Fatal("no free line in fresh cache")
	}
	c.Insert(7, seg, false, 10)
	l, ok := c.Lookup(7, 20)
	if !ok || l.DiskSeg != seg {
		t.Fatalf("lookup after insert: %v %v", l, ok)
	}
	if l.LastUse != 20 {
		t.Fatal("lookup did not update recency")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDuplicateInsertError(t *testing.T) {
	c := New(LRU, pool(2), 1)
	s1, _ := c.TakeFree()
	s2, _ := c.TakeFree()
	if _, err := c.Insert(1, s1, false, 0); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	_, err := c.Insert(1, s2, false, 0)
	if !errors.Is(err, ErrDuplicateLine) {
		t.Fatalf("duplicate insert error = %v, want ErrDuplicateLine", err)
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(LRU, pool(3), 1)
	for i := 0; i < 3; i++ {
		s, _ := c.TakeFree()
		c.Insert(i, s, false, sim.Time(i)*time.Second)
	}
	// Touch 0 so 1 becomes least recent.
	c.Lookup(0, 10*time.Second)
	v := c.Victim()
	if v == nil || v.Tag != 1 {
		t.Fatalf("LRU victim = %v, want tag 1", v)
	}
}

func TestFIFOVictim(t *testing.T) {
	c := New(FIFO, pool(3), 1)
	for i := 0; i < 3; i++ {
		s, _ := c.TakeFree()
		c.Insert(i, s, false, sim.Time(i)*time.Second)
	}
	c.Lookup(0, 10*time.Second) // recency must NOT matter for FIFO
	v := c.Victim()
	if v == nil || v.Tag != 0 {
		t.Fatalf("FIFO victim = %v, want tag 0 (oldest fetch)", v)
	}
}

func TestRandomVictimIsClean(t *testing.T) {
	c := New(Random, pool(4), 7)
	for i := 0; i < 4; i++ {
		s, _ := c.TakeFree()
		l, _ := c.Insert(i, s, false, 0)
		if i == 2 {
			l.Pins = 1
		}
		if i == 3 {
			l.Staging = true
		}
	}
	for i := 0; i < 50; i++ {
		v := c.Victim()
		if v == nil {
			t.Fatal("no victim")
		}
		if v.Tag == 2 || v.Tag == 3 {
			t.Fatalf("random victim picked pinned/staging line %d", v.Tag)
		}
	}
}

func TestStagingAndPinnedNeverEvicted(t *testing.T) {
	c := New(LRU, pool(2), 1)
	s1, _ := c.TakeFree()
	l1, _ := c.Insert(1, s1, true, 0) // staging
	s2, _ := c.TakeFree()
	l2, _ := c.Insert(2, s2, false, 0)
	l2.Pins = 1
	if v := c.Victim(); v != nil {
		t.Fatalf("victim %d despite all lines protected", v.Tag)
	}
	l1.Staging = false
	l2.Pins = 0
	if v := c.Victim(); v == nil {
		t.Fatal("no victim after unprotecting")
	}
}

func TestEvictReturnsSegmentForReuse(t *testing.T) {
	c := New(LRU, pool(1), 1)
	s, _ := c.TakeFree()
	l, _ := c.Insert(5, s, false, 0)
	got, err := c.Evict(l)
	if err != nil {
		t.Fatalf("evict: %v", err)
	}
	if got != s {
		t.Fatalf("evict returned %d, want %d", got, s)
	}
	if _, ok := c.Peek(5); ok {
		t.Fatal("line still present after evict")
	}
	c.Release(got)
	if _, ok := c.TakeFree(); !ok {
		t.Fatal("released segment not reusable")
	}
}

func TestEvictTypedErrors(t *testing.T) {
	c := New(LRU, pool(2), 1)
	s, _ := c.TakeFree()
	l, _ := c.Insert(1, s, true, 0)
	if _, err := c.Evict(l); !errors.Is(err, ErrEvictStaging) {
		t.Fatalf("evict staging error = %v, want ErrEvictStaging", err)
	}
	l.Staging = false
	l.Pins = 1
	if _, err := c.Evict(l); !errors.Is(err, ErrEvictPinned) {
		t.Fatalf("evict pinned error = %v, want ErrEvictPinned", err)
	}
	l.Pins = 0
	if _, err := c.Evict(l); err != nil {
		t.Fatalf("evict clean line: %v", err)
	}
	if _, err := c.Evict(l); !errors.Is(err, ErrEvictUnknown) {
		t.Fatalf("double evict error = %v, want ErrEvictUnknown", err)
	}
}

// TestPropertyCacheInvariants drives the cache with random operations and
// checks structural invariants after each: occupied + free == capacity,
// no tag appears twice, and victims are never staging or pinned.
func TestPropertyCacheInvariants(t *testing.T) {
	rng := sim.NewRNG(12345)
	c := New(LRU, pool(6), 99)
	type held struct {
		line *Line
	}
	lines := map[int]*held{}
	now := sim.Time(0)
	for op := 0; op < 2000; op++ {
		now += sim.Time(rng.Intn(1000)) * time.Millisecond
		switch rng.Intn(5) {
		case 0: // insert
			if seg, ok := c.TakeFree(); ok {
				tag := rng.Intn(50)
				if _, dup := lines[tag]; dup {
					c.Release(seg)
					continue
				}
				l, err := c.Insert(tag, seg, rng.Intn(4) == 0, now)
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				lines[tag] = &held{l}
			}
		case 1: // lookup
			if len(lines) > 0 {
				for tag := range lines {
					c.Lookup(tag, now)
					break
				}
			}
		case 2: // evict victim
			if v := c.Victim(); v != nil {
				if v.Staging || v.Pins > 0 {
					t.Fatalf("op %d: victim %d is staging/pinned", op, v.Tag)
				}
				seg, err := c.Evict(v)
				if err != nil {
					t.Fatalf("op %d: evict: %v", op, err)
				}
				c.Release(seg)
				delete(lines, v.Tag)
			}
		case 3: // toggle pins
			for tag, h := range lines {
				if rng.Intn(2) == 0 {
					h.line.Pins = rng.Intn(2)
				}
				_ = tag
				break
			}
		case 4: // clear staging
			for _, h := range lines {
				h.line.Staging = false
				break
			}
		}
		if c.Len()+c.FreeLines() != c.Capacity() {
			t.Fatalf("op %d: %d occupied + %d free != %d capacity", op, c.Len(), c.FreeLines(), c.Capacity())
		}
		seen := map[addr.SegNo]bool{}
		for _, l := range c.Lines() {
			if seen[l.DiskSeg] {
				t.Fatalf("op %d: disk segment %d bound to two lines", op, l.DiskSeg)
			}
			seen[l.DiskSeg] = true
		}
	}
}

// BenchmarkCacheLookup is the segment cache's row of `make bench-layers`:
// one directory lookup on a full 96-line cache (the paper-scale split),
// a hit and a miss.
func BenchmarkCacheLookup(b *testing.B) {
	const lines = 96
	c := New(LRU, pool(lines), 1)
	for tag := 0; tag < lines; tag++ {
		seg, _ := c.TakeFree()
		if _, err := c.Insert(tag*7, seg, false, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		tag  func(i int) int
		hit  bool
	}{
		{"hit", func(i int) int { return i % lines * 7 }, true},
		{"miss", func(i int) int { return i%lines*7 + 1 }, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup(tc.tag(i), sim.Time(i)); ok != tc.hit {
					b.Fatalf("lookup of tag %d: hit %v", tc.tag(i), ok)
				}
			}
		})
	}
}
