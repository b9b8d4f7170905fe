package attr

import (
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

const second = sim.Time(time.Second)

func TestNilTableAndAuditAreInert(t *testing.T) {
	var tb *Table
	tb.Touch(3, Hit, second)
	if h := tb.Heat(3, 2*second); h != 0 {
		t.Fatalf("nil table heat = %v", h)
	}
	if _, ok := tb.Seg(3); ok {
		t.Fatal("nil table has a record")
	}

	var a *Audit
	a.Record(Decision{Actor: "x", Seg: 1})
	if a.Total() != 0 || a.All() != nil || a.ForSegment(1) != nil {
		t.Fatal("nil audit recorded something")
	}
}

func TestTouchCountsAndLastTouch(t *testing.T) {
	tb := NewTable(0)
	tb.Touch(5, Hit, 1*second)
	tb.Touch(5, Hit, 2*second)
	tb.Touch(5, Miss, 3*second)
	tb.Touch(5, Fetch, 4*second)
	tb.Touch(5, Stage, 5*second)
	tb.Touch(5, Copyout, 6*second)
	tb.Touch(5, Evict, 7*second)
	tb.Touch(5, Clean, 8*second)

	r, ok := tb.Seg(5)
	if !ok {
		t.Fatal("no record for touched segment")
	}
	if r.Hits != 2 || r.Misses != 1 || r.Fetches != 1 || r.Stages != 1 ||
		r.Copyouts != 1 || r.Evicts != 1 || r.Cleans != 1 {
		t.Fatalf("counts wrong: %+v", r)
	}
	if r.LastTouch != 8*second {
		t.Fatalf("LastTouch = %v, want 8s", r.LastTouch)
	}
}

func TestHeatDecaysByHalfLife(t *testing.T) {
	tb := NewTable(10 * second)
	tb.Touch(1, Fetch, 0) // weight 4
	if h := tb.Heat(1, 0); h != 4 {
		t.Fatalf("heat at touch = %v, want 4", h)
	}
	// One half-life later: half the heat.
	if h := tb.Heat(1, 10*second); math.Abs(h-2) > 1e-9 {
		t.Fatalf("heat after one half-life = %v, want 2", h)
	}
	// Two half-lives: a quarter.
	if h := tb.Heat(1, 20*second); math.Abs(h-1) > 1e-9 {
		t.Fatalf("heat after two half-lives = %v, want 1", h)
	}
	// A new touch decays the old heat first, then adds its weight.
	tb.Touch(1, Hit, 10*second) // 4/2 + 1 = 3
	if h := tb.Heat(1, 10*second); math.Abs(h-3) > 1e-9 {
		t.Fatalf("heat after decayed re-touch = %v, want 3", h)
	}
	// Heat queries never mutate: asking at a later time twice is stable.
	h1 := tb.Heat(1, 40*second)
	h2 := tb.Heat(1, 40*second)
	if h1 != h2 {
		t.Fatalf("Heat mutated the record: %v vs %v", h1, h2)
	}
}

func TestBookkeepingEventsAddNoHeat(t *testing.T) {
	tb := NewTable(0)
	tb.Touch(2, Evict, second)
	tb.Touch(2, Clean, second)
	tb.Touch(2, Copyout, second)
	tb.Touch(2, Miss, second)
	if h := tb.Heat(2, second); h != 0 {
		t.Fatalf("bookkeeping events added heat %v", h)
	}
}

func TestAuditRingEvictsOldest(t *testing.T) {
	a := NewAudit(3)
	for i := 0; i < 5; i++ {
		a.Record(Decision{T: sim.Time(i) * second, Actor: "m", Subject: "s", Seg: i})
	}
	if a.Total() != 5 || len(a.All()) != 3 {
		t.Fatalf("total=%d retained=%d, want 5/3", a.Total(), len(a.All()))
	}
	all := a.All()
	for i, want := range []int{2, 3, 4} {
		if all[i].Seg != want {
			t.Fatalf("ring order wrong: %+v", all)
		}
	}
}

func TestAuditForSegment(t *testing.T) {
	a := NewAudit(0)
	a.Record(Decision{T: second, Actor: "migrator", Subject: "file:/a", Seg: -1, Verdict: VerdictSelected})
	a.Record(Decision{T: 2 * second, Actor: "stage", Subject: "seg:4", Seg: 4, Verdict: VerdictStaged})
	a.Record(Decision{T: 3 * second, Actor: "tcleaner", Subject: "seg:4", Seg: 4, Verdict: VerdictCleaned,
		Inputs: []Input{In("heat", 1.5)}})
	a.Record(Decision{T: 4 * second, Actor: "tcleaner", Subject: "seg:5", Seg: 5, Verdict: VerdictSkipped})

	chain := a.ForSegment(4)
	if len(chain) != 2 || chain[0].Verdict != VerdictStaged || chain[1].Verdict != VerdictCleaned {
		t.Fatalf("ForSegment(4) = %+v", chain)
	}
	if got := chain[1].String(); got == "" || chain[1].Inputs[0].Key != "heat" {
		t.Fatalf("decision rendering lost inputs: %q", got)
	}
	if len(a.ForSegment(99)) != 0 {
		t.Fatal("ForSegment invented decisions")
	}
}

// TestAuditRecordCopiesNothing: filling a ring allocates each slot once (a
// ring below its cap grows by a chunk and never copies what it holds), and
// recording into a full ring allocates nothing.
func TestAuditRecordCopiesNothing(t *testing.T) {
	const n = 4096
	d := Decision{T: second, Actor: "svc", Subject: "req", Seg: -1, Verdict: VerdictShed}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewAudit(n)
	for range n {
		a.Record(d)
	}
	runtime.ReadMemStats(&after)
	slots := uint64(n) * uint64(unsafe.Sizeof(d))
	if got := after.TotalAlloc - before.TotalAlloc; got > slots+slots/16 {
		t.Errorf("filling %d slots allocated %d bytes, want at most %d (the slots and their chunk list)", n, got, slots+slots/16)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Record(d) }); allocs != 0 {
		t.Errorf("%v allocations per Record into a full ring, want 0", allocs)
	}
	if all := a.All(); len(all) != n || a.Total() != n+101 {
		t.Errorf("retained %d of %d decisions, want %d", len(all), a.Total(), n)
	}
}

// BenchmarkAuditFill is one fresh ring filled with 1,024 decisions: what a
// rig's audit log costs while it is below its cap.
func BenchmarkAuditFill(b *testing.B) {
	d := Decision{T: second, Actor: "svc", Subject: "req", Seg: -1, Verdict: VerdictShed}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAudit(0)
		for range 1024 {
			a.Record(d)
		}
	}
}
