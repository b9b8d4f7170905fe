package reqtrace

import (
	"errors"
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
