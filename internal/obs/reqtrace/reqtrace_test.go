package reqtrace

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(n) * time.Millisecond }

func TestCriticalPathAttributesInnermostStage(t *testing.T) {
	tr := &Trace{ID: 1, Class: "interactive", Submit: 0}
	// fetch-wait 10..100 enclosing a drive-swap 20..60 enclosing a
	// media-transfer 30..50; queue-wait 0..10.
	q := tr.StageStart(KindQueueWait, 0, "")
	tr.StageEnd(q, ms(10))
	fw := tr.StageStart(KindFetchWait, ms(10), "")
	sw := tr.StageStart(KindDriveSwap, ms(20), "")
	mt := tr.StageStart(KindMediaTransfer, ms(30), "")
	tr.StageEnd(mt, ms(50))
	tr.StageEnd(sw, ms(60))
	tr.StageEnd(fw, ms(100))
	tr.complete(ms(120), nil)

	b := tr.Breakdown()
	want := map[Kind]sim.Time{
		KindQueueWait:     ms(10),
		KindFetchWait:     ms(50), // 10..20 and 60..100
		KindDriveSwap:     ms(20), // 20..30 and 50..60
		KindMediaTransfer: ms(20), // 30..50
		kindExec:          ms(20), // 100..120
	}
	var sum sim.Time
	for k, d := range b {
		sum += d
		if want[Kind(k)] != d {
			t.Errorf("%s: got %v, want %v", Kind(k), d, want[Kind(k)])
		}
	}
	if sum != tr.Latency() {
		t.Fatalf("stage sum %v != latency %v", sum, tr.Latency())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteForceClosesOpenStages(t *testing.T) {
	tr := &Trace{ID: 2, Class: "interactive", Submit: ms(5)}
	i := tr.StageStart(KindFetchWait, ms(10), "")
	tr.complete(ms(40), errors.New("deadline exceeded"))
	if tr.Stages[0].Open || tr.Stages[0].End != ms(40) {
		t.Fatalf("open stage not sealed: %+v", tr.Stages[0])
	}
	// A late StageEnd from a background daemon must not reopen or move it.
	tr.StageEnd(i, ms(90))
	if tr.Stages[0].End != ms(40) {
		t.Fatalf("late StageEnd moved a sealed stage: %+v", tr.Stages[0])
	}
	// Late StageStart after completion records nothing.
	if j := tr.StageStart(KindDriveSwap, ms(95), ""); j != -1 {
		t.Fatalf("StageStart on a completed trace returned %d", j)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Err == "" {
		t.Fatal("terminal error not recorded")
	}
}

func TestStageCapDropsButKeepsInvariant(t *testing.T) {
	tr := &Trace{ID: 3, Class: "background"}
	for i := 0; i < maxStages+25; i++ {
		j := tr.StageStart(KindStripeIO, ms(i), "")
		tr.StageEnd(j, ms(i+1))
	}
	if len(tr.Stages) != maxStages || tr.Dropped != 25 {
		t.Fatalf("stages %d dropped %d, want %d and 25", len(tr.Stages), tr.Dropped, maxStages)
	}
	tr.complete(ms(maxStages+100), nil)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if i := tr.StageStart(KindQueueWait, 0, ""); i != -1 {
		t.Fatal("nil trace recorded a stage")
	}
	tr.StageEnd(0, 0)
	tr.Mark(KindAdmission, 0, "")
	tr.complete(0, nil)
	if tr.Latency() != 0 || tr.Breakdown() != [numKinds]sim.Time{} {
		t.Fatal("nil trace not inert")
	}
	var tc *Tracer
	if tc.Start(1, "x", 0, 0) != nil {
		t.Fatal("nil tracer started a trace")
	}
	tc.Seal(nil, 0, nil)
	if tc.Recent() != nil || tc.Slowest("", 5) != nil || tc.Request(1) != nil {
		t.Fatal("nil tracer not inert")
	}
	k := sim.NewKernel()
	k.RunProc(func(p *sim.Proc) {
		if From(p) != nil {
			t.Error("From on ctx-less proc not nil")
		}
	})
}

func TestTracerRingsAndExemplars(t *testing.T) {
	tc := New(4, 2)
	o := obs.New(sim.NewKernel())
	tc.SetObs(o)
	for i := 1; i <= 6; i++ {
		tr := tc.Start(int64(i), "interactive", 0, 0)
		j := tr.StageStart(KindFetchWait, 0, "")
		tr.StageEnd(j, ms(10*i))
		tc.Seal(tr, ms(10*i), nil)
	}
	rec := tc.Recent()
	if len(rec) != 4 || rec[0].ID != 3 || rec[3].ID != 6 {
		t.Fatalf("recent ring wrong: %+v", ids(rec))
	}
	slow := tc.Slowest("interactive", 10)
	if len(slow) != 2 || slow[0].ID != 6 || slow[1].ID != 5 {
		t.Fatalf("exemplars wrong: %+v", ids(slow))
	}
	// ID 5 aged out of the ring but survives as an exemplar.
	if tc.Request(5) == nil {
		t.Fatal("exemplar not findable by ID")
	}
	if tc.Request(1) != nil {
		t.Fatal("aged-out trace still findable")
	}
	started, sealed, stages := tc.Counts()
	if started != 6 || sealed != 6 || stages != 6 {
		t.Fatalf("counts %d/%d/%d", started, sealed, stages)
	}
	if h := o.Histogram("reqtrace.stage.fetch-wait", obs.LatencyBounds); h.N != 6 {
		t.Fatalf("stage histogram observed %d, want 6", h.N)
	}
}

func ids(trs []*Trace) []int64 {
	out := make([]int64, len(trs))
	for i, tr := range trs {
		out[i] = tr.ID
	}
	return out
}

func TestZeroLatencyRequest(t *testing.T) {
	tr := &Trace{ID: 9, Class: "interactive", Submit: ms(7)}
	tr.complete(ms(7), nil)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Breakdown() != [numKinds]sim.Time{} {
		t.Fatal("zero-latency request has a nonzero breakdown")
	}
}

// TestSealAllocatesNothing: once the recent ring and the exemplars are full,
// sealing a trace allocates nothing: the breakdown sweeps in the tracer's
// scratch, and the exemplars sort in place.
func TestSealAllocatesNothing(t *testing.T) {
	const warm, runs = 8, 50
	tc := New(4, 2)
	tc.SetObs(obs.New(sim.NewKernel()))
	trs := make([]*Trace, warm+runs+1)
	for i := range trs {
		tr := tc.Start(int64(i+1), "interactive", ms(i), 0)
		fw := tr.StageStart(KindFetchWait, ms(i), "")
		tr.Mark(KindAdmission, ms(i+1), "")
		tr.StageEnd(fw, ms(i+5+i%7))
		trs[i] = tr
	}
	seal := func() {
		tr := trs[0]
		trs = trs[1:]
		tc.Seal(tr, tr.Stages[0].End+ms(1), nil)
	}
	for range warm {
		seal()
	}
	if n := testing.AllocsPerRun(runs, seal); n != 0 {
		t.Errorf("%v allocations per Seal, want 0", n)
	}
}

// cycle starts trace id with a queue-wait, a fetch-wait and an admission
// mark, and seals it: one request's life in the tracer.
func cycle(tc *Tracer, id int) *Trace {
	tr := tc.Start(int64(id), "interactive", ms(id), 0)
	q := tr.StageStart(KindQueueWait, ms(id), "")
	tr.StageEnd(q, ms(id+1))
	fw := tr.StageStart(KindFetchWait, ms(id+1), "")
	tr.Mark(KindAdmission, ms(id+2), "")
	tr.StageEnd(fw, ms(id+5+id%7))
	tc.Seal(tr, ms(id+6+id%7), nil)
	return tr
}

// TestStartSealCycleAllocatesNothing: once the recent ring is full, a
// request's whole trace (Start, its stages, Seal) allocates nothing: Start
// reuses a trace that left the ring, stage array and all.
func TestStartSealCycleAllocatesNothing(t *testing.T) {
	tc := New(4, 2)
	tc.SetObs(obs.New(sim.NewKernel()))
	id := 0
	for range 16 {
		id++
		cycle(tc, id)
	}
	if n := testing.AllocsPerRun(50, func() { id++; cycle(tc, id) }); n != 0 {
		t.Errorf("%v allocations per Start-Seal cycle, want 0", n)
	}
}

// TestReusedTracesAreUnreachable: over a seeded stream of requests that
// overlap, some of them holding their trace for a fetch that ends before or
// after the seal, Start never returns a trace reachable from Recent,
// Slowest, a request still open or a hold; Recent still lists the last
// sealed requests in order; and traces are reused.
func TestReusedTracesAreUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	tc := New(8, 3)
	held := map[*Trace]string{} // traces nothing may reuse, and why
	var holding []*Trace        // traces a fetch holds, oldest first
	var open []*Trace
	var sealed []int64
	reused := 0
	now := sim.Time(0)
	for id := int64(1); id <= 2000; id++ {
		now += ms(rng.Intn(3))
		if len(open) < 6 && rng.Intn(3) > 0 {
			tr := tc.Start(id, []string{"interactive", "background"}[rng.Intn(2)], now, 0)
			if why, ok := held[tr]; ok {
				t.Fatalf("request %d got the trace of %s", id, why)
			}
			if slices.Contains(holding, tr) {
				t.Fatalf("request %d got a trace a fetch still holds", id)
			}
			if tr.ID != id || tr.Done || len(tr.Stages) != 0 || tr.holds != 0 {
				t.Fatalf("request %d got a trace that was not reset: %+v", id, tr)
			}
			if cap(tr.Stages) > 0 {
				reused++
			}
			tr.Mark(KindAdmission, now, "")
			if rng.Intn(5) == 0 {
				tr.Hold(1)
				holding = append(holding, tr)
			}
			held[tr] = fmt.Sprintf("open request %d", id)
			open = append(open, tr)
			continue
		}
		if len(holding) > 0 && rng.Intn(4) == 0 { // the oldest fetch ends
			holding[0].Hold(-1)
			holding = holding[1:]
			continue
		}
		if len(open) == 0 {
			continue
		}
		i := rng.Intn(len(open))
		tr := open[i]
		open = slices.Delete(open, i, i+1)
		tc.Seal(tr, now+ms(rng.Intn(50)), nil)
		sealed = append(sealed, tr.ID)
		clear(held)
		for _, o := range open {
			held[o] = fmt.Sprintf("open request %d", o.ID)
		}
		for _, r := range tc.Recent() {
			held[r] = fmt.Sprintf("recent request %d", r.ID)
		}
		for _, c := range tc.Classes() {
			for _, s := range tc.Slowest(c, 100) {
				held[s] = fmt.Sprintf("exemplar %d", s.ID)
			}
		}
		var want []int64
		if n := len(sealed); n > 8 {
			want = sealed[n-8:]
		} else {
			want = sealed
		}
		var got []int64
		for _, r := range tc.Recent() {
			got = append(got, r.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Recent lists %v, want %v", got, want)
		}
	}
	if reused == 0 {
		t.Fatal("no trace was reused")
	}
}

// TestTraceLeavingRingAndExemplarsAtOnce: a seal that pushes one trace out
// of the recent ring and out of its class's exemplars at once frees it once:
// the next two requests get two traces.
func TestTraceLeavingRingAndExemplarsAtOnce(t *testing.T) {
	tc := New(2, 1)
	for i, latency := range []int{100, 1, 200} { // the third evicts the first from both
		tr := tc.Start(int64(i+1), "interactive", 0, 0)
		tc.Seal(tr, ms(latency), nil)
	}
	if a, b := tc.Start(4, "interactive", 0, 0), tc.Start(5, "interactive", 0, 0); a == b {
		t.Fatal("two requests got the same trace")
	}
}

// BenchmarkTraceCycle is one request's trace once the recent ring is full:
// Start, three stages and Seal.
func BenchmarkTraceCycle(b *testing.B) {
	tc := New(0, 0)
	tc.SetObs(obs.New(sim.NewKernel()))
	for id := range 300 {
		cycle(tc, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(tc, 300+i)
	}
}
