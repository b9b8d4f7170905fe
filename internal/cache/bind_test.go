package cache

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// binding is what the segment usage table holds for one cache segment.
type binding struct {
	tag     int // -1: unbound
	staging bool
}

// TestBindLogMatchesTheDirectory drives the directory with one seeded op
// stream — inserts of staging and clean lines, TakeFree, TakeSeg, Victim and
// Evict, Release, Unstage — and keeps a model of the usage table built from
// nothing but the Bind calls. After every op the model must say what the
// directory says: each line's disk segment bound to its tag and staging bit,
// and each segment out of a line unbound (free, or taken and not yet
// inserted), except one mount claimed for the line the table names there.
func TestBindLogMatchesTheDirectory(t *testing.T) {
	const lines = 8
	segs := pool(lines)
	rng := sim.NewRNG(26)
	c := New(SLRU, segs, 1)
	table := map[addr.SegNo]binding{}
	c.Bind = func(seg addr.SegNo, tag int, staging bool) { table[seg] = binding{tag, staging} }
	bound := func(seg addr.SegNo) binding {
		if b, ok := table[seg]; ok {
			return b
		}
		return binding{tag: -1} // the pool is claimed unbound
	}
	var held []addr.SegNo            // taken out of the pool, no line yet
	mounted := map[addr.SegNo]bool{} // held, and bound in the table by a checkpoint
	var ops [7]int
	for op := 0; op < 5000; op++ {
		now := sim.Time(op)
		k := rng.Intn(len(ops))
		switch k {
		case 0: // a fetch or a staging line takes a free segment
			s, ok := c.TakeFree()
			if !ok {
				continue
			}
			held = append(held, s)
		case 1: // mount claims the segment a checkpointed line names
			s := segs[rng.Intn(lines)]
			if !slices.Contains(c.free, s) {
				continue
			}
			table[s] = binding{rng.Intn(3 * lines), rng.Intn(2) == 0}
			c.TakeSeg(s)
			held = append(held, s)
			mounted[s] = true
		case 2, 3: // a fetched line or a staging line
			tag := rng.Intn(3 * lines)
			if _, dup := c.Peek(tag); dup || len(held) == 0 {
				continue
			}
			s := held[len(held)-1]
			held = held[:len(held)-1]
			delete(mounted, s)
			if _, err := c.Insert(tag, s, k == 3, now); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		case 4: // replacement
			v := c.Victim()
			if v == nil {
				continue
			}
			s, err := c.Evict(v)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			held = append(held, s)
		case 5: // a line dropped without reuse, or a failed fetch's segment
			if len(held) == 0 {
				continue
			}
			i := rng.Intn(len(held))
			c.Release(held[i])
			delete(mounted, held[i])
			held = slices.Delete(held, i, i+1)
		case 6: // a copy-out completes
			var staging []*Line
			for _, l := range c.Lines() {
				if l.Staging {
					staging = append(staging, l)
				}
			}
			if len(staging) == 0 {
				continue
			}
			c.Unstage(staging[rng.Intn(len(staging))])
		}
		ops[k]++
		for _, l := range c.Lines() {
			if got, want := bound(l.DiskSeg), (binding{l.Tag, l.Staging}); got != want {
				t.Fatalf("op %d: segment %d bound to %+v, the directory says %+v", op, l.DiskSeg, got, want)
			}
		}
		for _, s := range append(slices.Clone(c.free), held...) {
			if b := bound(s); !mounted[s] && (b.tag != -1 || b.staging) {
				t.Fatalf("op %d: segment %d holds no line, yet is bound to %+v", op, s, b)
			}
		}
	}
	for k, n := range ops {
		if n < 50 {
			t.Fatalf("op kind %d ran %d times: the stream exercised too little (%v)", k, n, ops)
		}
	}
}
