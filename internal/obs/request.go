package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// A request's trace answers where this one request's latency came from:
// "request N spent 80% of its deadline waiting on a drive swap", beside the
// aggregates' "p99 stall is X". A Trace rides the request's sim.Ctx
// (Ctx.SetTrace) from front-end admission down through the cache directory,
// the striped disk farm, the tertiary service and the jukebox drivers. The
// interval a layer times (Begin, Interval.End) is a stage of that trace when
// the process carries one, and a span when End names a category: one call
// records both. Stages may nest and overlap (a fetch-wait encloses the
// drive-swap and media-transfer the I/O daemon performs on the waiter's
// behalf); the critical-path sweep attributes every instant of the request's
// life to the innermost stage open at that instant, so the per-stage
// exclusive durations always sum exactly to the end-to-end latency.
//
// Recording is pure observation: no virtual time is consumed, no RNG is
// drawn, and every structure is bounded, so tracing on leaves a
// deterministic run's externally visible schedule and metrics bit-identical
// (proved by the ablation_reqtrace bench row).

// Kind types a stage of a request's life.
type Kind uint8

const (
	// KindQueueWait is time in the front end's admission queue.
	KindQueueWait Kind = iota
	// KindAdmission marks the admission decision (zero duration).
	KindAdmission
	// KindCacheLookup is the segment-cache directory consultation.
	KindCacheLookup
	// KindFetchWait is time blocked on a tertiary demand fetch.
	KindFetchWait
	// KindStripeIO is disk-farm I/O (reads of cache lines and the disk
	// region, the fetch's staging write) through the stripe layer.
	KindStripeIO
	// KindDriveSwap is a jukebox cartridge swap (picker + bus hold).
	KindDriveSwap
	// KindMediaTransfer is positioning + media transfer in a drive.
	KindMediaTransfer
	// KindRetryBackoff is virtual-time backoff between I/O retries.
	KindRetryBackoff
	// KindFSLock is time an acquire of the file-system lock actually waited.
	KindFSLock
	// KindIOQueue is time a fetch's transfer sat in its library's I/O queue
	// with every I/O process of that library busy (inside its fetch-wait).
	KindIOQueue
	// kindExec is the residual: request time no recorded stage covers
	// (computation, buffer copies, unattributed waits).
	kindExec

	numKinds
)

var kindNames = [numKinds]string{
	"queue-wait", "admission", "cache-lookup", "fetch-wait", "stripe-io",
	"drive-swap", "media-transfer", "retry-backoff", "fs-lock", "io-queue",
	"exec",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// maxStages bounds one trace's stage list; a pathological request (a
// huge read touching hundreds of cache lines) stops recording detail
// rather than growing without bound. The critical-path invariant holds
// regardless: unrecorded time lands in the kindExec residual.
const maxStages = 512

// Stage is one recorded interval of a trace.
type Stage struct {
	Kind  Kind
	Open  bool // still running (forced closed when the trace completes)
	Start sim.Time
	End   sim.Time
	name  string   // the name its End gave: a lock's owner for an fs-lock stage
	vals  [2]int64 // the values of the first two args its End gave
}

// Note is the stage's annotation, formatted from what its End gave.
func (s *Stage) Note() string {
	switch s.Kind {
	case KindFetchWait:
		return fmt.Sprintf("seg %d", s.vals[0])
	case KindStripeIO:
		return fmt.Sprintf("%s %d blk", s.name, s.vals[0])
	case KindDriveSwap:
		return fmt.Sprintf("vol %d drive %d", s.vals[0], s.vals[1])
	case KindMediaTransfer:
		dir := "read"
		if s.name == "WriteSegment" {
			dir = "write"
		}
		return fmt.Sprintf("%s vol %d seg %d", dir, s.vals[0], s.vals[1])
	case KindIOQueue:
		return fmt.Sprintf("lib %d depth %d", s.vals[0], s.vals[1])
	case KindFSLock:
		return "held by " + s.name
	}
	return s.name
}

// Trace is one request's record. All methods are nil-safe, so call
// sites can record unconditionally and pay nothing when untraced.
type Trace struct {
	ID       int64
	Class    string
	Submit   sim.Time
	Start    sim.Time // execution start (0 = never started)
	End      sim.Time
	Deadline sim.Time // absolute; 0 = none
	Err      string   // terminal error ("" = success)
	Done     bool
	Stages   []Stage
	Dropped  int // stages not recorded because maxStages was reached

	owner *Tracer // which takes it back for reuse once nothing holds it (release)
	holds int     // processes holding it (Hold); -1 on the free list
}

// Hold(1) keeps tr from reuse for a process that may record on it after its
// seal (the demand fetch it rides into an I/O process); Hold(-1) ends that.
func (tr *Trace) Hold(n int) {
	if tr != nil {
		tr.holds += n
		tr.owner.release(tr)
	}
}

// Interval is one timed interval of virtual time, from Begin to End.
type Interval struct {
	p     *sim.Proc
	start sim.Time
	tr    *Trace // the trace it is a stage of, or nil
	stage int    // its index in tr.Stages
}

// Begin opens an interval of kind on p: a stage of the request p's scope
// carries, if it carries one.
func Begin(p *sim.Proc, kind Kind) Interval {
	tr, _ := p.Ctx().Trace().(*Trace)
	return tr.Begin(p, kind)
}

// Begin opens an interval of kind on p that is a stage of tr, whichever
// request p works for (nil-safe: a nil trace records no stage).
func (tr *Trace) Begin(p *sim.Proc, kind Kind) Interval {
	iv := Interval{p: p, start: p.Now()}
	if i := tr.open(kind, iv.start); i >= 0 {
		iv.tr, iv.stage = tr, i
	}
	return iv
}

// End closes iv. With o and cat set it is a span of o on track (args are
// copied only when o retains spans, so they stay on the caller's stack);
// with cat empty it records no span. Its stage notes name and the values of
// the first two args.
func (iv Interval) End(o *Obs, track, cat, name string, args ...Arg) {
	if iv.tr != nil {
		iv.tr.close(iv.stage, iv.p.Now(), name, args)
	}
	if o != nil && cat != "" {
		o.record(span{Track: track, Cat: cat, Name: name, Start: iv.start, Dur: o.k.Now() - iv.start}, args)
	}
}

// open appends a stage of kind at now and returns its index (-1 when not
// recorded: nil trace, completed trace, or stage cap).
func (tr *Trace) open(kind Kind, now sim.Time) int {
	if tr == nil || tr.Done {
		return -1
	}
	if len(tr.Stages) >= maxStages {
		tr.Dropped++
		return -1
	}
	tr.Stages = append(tr.Stages, Stage{Kind: kind, Start: now, End: now, Open: true})
	return len(tr.Stages) - 1
}

// close ends stage i at now and notes name and args on it. A stage the seal
// already closed (a background I/O daemon still held it) keeps its end, so
// the trace's invariants survive late writers; it still takes the note.
func (tr *Trace) close(i int, now sim.Time, name string, args []Arg) {
	s := &tr.Stages[i]
	if s.Open {
		s.End = now
		s.Open = false
	}
	s.name = name
	for j := range min(len(args), len(s.vals)) {
		s.vals[j] = args[j].Val
	}
}

// Latency is the end-to-end virtual-time latency (0 until Done).
func (tr *Trace) Latency() sim.Time {
	if tr == nil || !tr.Done {
		return 0
	}
	return tr.End - tr.Submit
}

// complete seals the trace: records the terminal state and force-closes
// every still-open stage at the completion instant, so a canceled or
// deadline-expired request whose layers never reached their End
// still satisfies the stages-within-[Submit,End] invariant.
func (tr *Trace) complete(now sim.Time, err error) {
	if tr == nil || tr.Done {
		return
	}
	tr.End = now
	if err != nil {
		tr.Err = err.Error()
	}
	for i := range tr.Stages {
		if tr.Stages[i].Open {
			tr.Stages[i].End = now
			tr.Stages[i].Open = false
		}
	}
	tr.Done = true
}

// Breakdown partitions [Submit, End] at every stage's edges and sums the
// pieces per kind: each goes to the innermost (latest-started; ties to the
// latest-recorded) stage open over it, and time no stage covers to the
// kindExec residual. The values cover every instant of the request exactly
// once: their sum equals Latency().
func (tr *Trace) Breakdown() [numKinds]sim.Time {
	out, _ := tr.breakdown(nil)
	return out
}

// breakdown is Breakdown with the sweep's edges in points, returned for the
// next call to reuse.
func (tr *Trace) breakdown(points []sim.Time) ([numKinds]sim.Time, []sim.Time) {
	var out [numKinds]sim.Time
	if tr == nil || !tr.Done || tr.End <= tr.Submit {
		return out, points
	}
	lo, hi := tr.Submit, tr.End
	clamp := func(t sim.Time) sim.Time { return min(max(t, lo), hi) }
	points = append(points[:0], lo, hi)
	for i := range tr.Stages {
		points = append(points, clamp(tr.Stages[i].Start), clamp(tr.Stages[i].End))
	}
	slices.Sort(points)
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if b <= a {
			continue
		}
		// Innermost open stage over [a, b): max clamped Start, ties to
		// the latest-recorded stage (append order is causal order).
		kind, found := kindExec, false
		var bestStart sim.Time
		for j := range tr.Stages {
			s := &tr.Stages[j]
			if cs := clamp(s.Start); cs <= a && clamp(s.End) >= b && (!found || cs >= bestStart) {
				kind, bestStart, found = s.Kind, cs, true
			}
		}
		out[kind] += b - a
	}
	return out, points
}

// Validate checks the trace invariants: sealed, stages closed and inside
// [Submit, End], and the critical-path breakdown summing exactly to the
// end-to-end latency. The soak tests property-check every exemplar.
func (tr *Trace) Validate() error {
	if tr == nil {
		return fmt.Errorf("obs: nil request trace")
	}
	if !tr.Done {
		return fmt.Errorf("obs: request %d not sealed", tr.ID)
	}
	if tr.End < tr.Submit {
		return fmt.Errorf("obs: request %d ends %v before submit %v", tr.ID, tr.End, tr.Submit)
	}
	for i, s := range tr.Stages {
		if s.Open {
			return fmt.Errorf("obs: request %d stage %d (%s) still open", tr.ID, i, s.Kind)
		}
		if s.End < s.Start {
			return fmt.Errorf("obs: request %d stage %d (%s) negative", tr.ID, i, s.Kind)
		}
	}
	var sum sim.Time
	for _, d := range tr.Breakdown() {
		sum += d
	}
	if sum != tr.Latency() {
		return fmt.Errorf("obs: request %d stage sum %v != latency %v", tr.ID, sum, tr.Latency())
	}
	return nil
}

// Tracer owns the bounded per-request retention: a ring of the most
// recent completed traces plus, per class, the K slowest exemplars. It
// also feeds per-stage critical-path histograms into a domain.
// All methods are nil-safe.
type Tracer struct {
	recentCap int
	slowCap   int

	recent  []*Trace // ring, next is the write cursor
	next    int
	byClass map[string][]*Trace // slowest-first exemplars
	classes []string            // first-appearance order
	free    []*Trace            // sealed traces nothing holds, for Start to reuse

	started int64
	sealed  int64
	stages  int64

	stageH [numKinds]*Histogram
	points []sim.Time // Seal's scratch for the breakdown sweep
}

// A tracer retains the recentRing most recent traces and the
// slowExemplars slowest per class.
const (
	recentRing    = 256
	slowExemplars = 16
)

// NewTracer builds a tracer.
func NewTracer() *Tracer {
	return &Tracer{
		recentCap: recentRing,
		slowCap:   slowExemplars,
		byClass:   make(map[string][]*Trace),
	}
}

// SetObs registers per-stage critical-path histograms
// ("reqtrace.stage.<kind>") in o, fed at each Seal.
func (t *Tracer) SetObs(o *Obs) {
	if t == nil || o == nil {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		t.stageH[k] = o.Histogram("reqtrace.stage."+k.String(), LatencyBounds)
	}
}

// Start opens a trace for one request, reusing a released one (release).
func (t *Tracer) Start(id int64, class string, submit, deadline sim.Time) *Trace {
	if t == nil {
		return nil
	}
	t.started++
	var tr *Trace
	if n := len(t.free); n > 0 {
		tr, t.free = t.free[n-1], t.free[:n-1]
		clear(tr.Stages)
	} else {
		tr = &Trace{Stages: make([]Stage, 0, 8)} // a request records about six stages
	}
	*tr = Trace{ID: id, Class: class, Submit: submit, Deadline: deadline, Stages: tr.Stages[:0], owner: t}
	return tr
}

// release puts tr on the free list, once, when it is sealed and neither a
// process, nor the recent ring, nor its class's exemplars hold it.
func (t *Tracer) release(tr *Trace) {
	if t != nil && tr.Done && tr.holds == 0 && !slices.Contains(t.recent, tr) && !slices.Contains(t.byClass[tr.Class], tr) {
		tr.holds = -1
		t.free = append(t.free, tr)
	}
}

// Seal completes tr at now with its terminal error and retains it in
// the recent ring and, if it qualifies, the per-class slowest exemplars.
// Per-stage histograms observe the critical-path breakdown (nonzero
// kinds only, so untouched stages do not flood the zero bucket).
func (t *Tracer) Seal(tr *Trace, now sim.Time, err error) {
	if t == nil || tr == nil || tr.Done {
		return
	}
	tr.complete(now, err)
	t.sealed++
	t.stages += int64(len(tr.Stages))
	var bd [numKinds]sim.Time
	bd, t.points = tr.breakdown(t.points)
	for k, d := range bd {
		if d > 0 {
			t.stageH[k].Observe(d)
		}
	}
	// Recent ring.
	if len(t.recent) < t.recentCap {
		t.recent = append(t.recent, tr)
	} else {
		defer t.release(t.recent[t.next]) // once tr is in its place and the exemplars
		t.recent[t.next] = tr
	}
	t.next = (t.next + 1) % t.recentCap
	// Slowest exemplars, per class: kept sorted slowest-first, ties to
	// the earlier request, truncated to slowCap.
	if _, ok := t.byClass[tr.Class]; !ok {
		t.classes = append(t.classes, tr.Class)
	}
	ex := append(t.byClass[tr.Class], tr)
	slices.SortStableFunc(ex, slowestFirst)
	if len(ex) > t.slowCap {
		defer t.release(ex[t.slowCap]) // once the list no longer holds it
		ex = ex[:t.slowCap]
	}
	t.byClass[tr.Class] = ex
}

// slowestFirst orders traces by latency, longest first, ties to the
// earlier request.
func slowestFirst(a, b *Trace) int {
	if c := cmp.Compare(b.Latency(), a.Latency()); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Counts reports how many traces were started and sealed and how many
// stages were recorded in total.
func (t *Tracer) Counts() (started, sealed, stages int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.started, t.sealed, t.stages
}

// Recent returns the retained recent traces, oldest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil || len(t.recent) == 0 {
		return nil
	}
	out := make([]*Trace, 0, len(t.recent))
	if len(t.recent) < t.recentCap {
		return append(out, t.recent...)
	}
	for i := 0; i < t.recentCap; i++ {
		out = append(out, t.recent[(t.next+i)%t.recentCap])
	}
	return out
}

// Classes lists the classes seen, sorted.
func (t *Tracer) Classes() []string {
	if t == nil {
		return nil
	}
	out := append([]string(nil), t.classes...)
	sort.Strings(out)
	return out
}

// Slowest returns up to k slowest exemplars of class, slowest first.
// class "" merges all classes.
func (t *Tracer) Slowest(class string, k int) []*Trace {
	if t == nil || k <= 0 {
		return nil
	}
	var pool []*Trace
	if class != "" {
		pool = append(pool, t.byClass[class]...)
	} else {
		for _, c := range t.Classes() {
			pool = append(pool, t.byClass[c]...)
		}
		slices.SortStableFunc(pool, slowestFirst)
	}
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool
}

// Request finds a retained trace by ID (recent ring first, then the
// exemplars); nil when it aged out or never completed.
func (t *Tracer) Request(id int64) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.recent {
		if tr != nil && tr.ID == id {
			return tr
		}
	}
	for _, c := range t.classes {
		for _, tr := range t.byClass[c] {
			if tr.ID == id {
				return tr
			}
		}
	}
	return nil
}
