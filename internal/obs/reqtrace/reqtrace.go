// Package reqtrace is the per-request causal trace: where did this one
// request's latency come from? The aggregate observability layers
// (internal/obs, internal/obs/attr) can say "p99 stall is X"; reqtrace
// answers "request N spent 80% of its deadline waiting on a drive swap".
//
// A Trace rides the request's sim.Ctx (Ctx.SetTrace / Ctx.Trace) from
// front-end admission down through the cache directory, the striped disk
// farm, the tertiary service, and the jukebox drivers. Each layer records
// typed stages — queue-wait, cache-lookup, fetch-wait, stripe-io, drive-swap,
// media-transfer, retry-backoff, fs-lock, io-queue — against
// the virtual clock. Stages may nest and overlap (a fetch-wait encloses the
// drive-swap and media-transfer the I/O daemon performs on the waiter's
// behalf); the critical-path sweep attributes every instant of the
// request's life to the innermost stage open at that instant, so the
// per-stage exclusive durations always sum exactly to the end-to-end
// latency — the invariant the waterfall report and the soak property
// checks pin.
//
// Recording is pure observation: no virtual time is consumed, no RNG is
// drawn, and every structure is bounded, so tracing on leaves a
// deterministic run's externally visible schedule and metrics
// bit-identical (proved by the ablation_reqtrace bench row).
package reqtrace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

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
	Note  string
	Start sim.Time
	End   sim.Time
	Open  bool // still running (forced closed when the trace completes)
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

// StageStart opens a stage at now and returns its index for StageEnd
// (-1 when not recorded: nil trace, completed trace, or stage cap).
func (tr *Trace) StageStart(kind Kind, now sim.Time, note string) int {
	if tr == nil || tr.Done {
		return -1
	}
	if len(tr.Stages) >= maxStages {
		tr.Dropped++
		return -1
	}
	tr.Stages = append(tr.Stages, Stage{Kind: kind, Note: note, Start: now, End: now, Open: true})
	return len(tr.Stages) - 1
}

// StageEnd closes the stage opened at index i. Closing an already-closed
// stage (the trace completed while a background I/O daemon still held
// the index) is a no-op, so the trace's invariants survive late writers.
func (tr *Trace) StageEnd(i int, now sim.Time) {
	if tr == nil || i < 0 || i >= len(tr.Stages) {
		return
	}
	if s := &tr.Stages[i]; s.Open {
		s.End = now
		s.Open = false
	}
}

// Mark records a zero-duration stage at now.
func (tr *Trace) Mark(kind Kind, now sim.Time, note string) {
	tr.StageEnd(tr.StageStart(kind, now, note), now)
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
// deadline-expired request whose layers never reached their StageEnd
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
		return fmt.Errorf("reqtrace: nil trace")
	}
	if !tr.Done {
		return fmt.Errorf("reqtrace: request %d not sealed", tr.ID)
	}
	if tr.End < tr.Submit {
		return fmt.Errorf("reqtrace: request %d ends %v before submit %v", tr.ID, tr.End, tr.Submit)
	}
	for i, s := range tr.Stages {
		if s.Open {
			return fmt.Errorf("reqtrace: request %d stage %d (%s) still open", tr.ID, i, s.Kind)
		}
		if s.End < s.Start {
			return fmt.Errorf("reqtrace: request %d stage %d (%s) negative", tr.ID, i, s.Kind)
		}
	}
	var sum sim.Time
	for _, d := range tr.Breakdown() {
		sum += d
	}
	if sum != tr.Latency() {
		return fmt.Errorf("reqtrace: request %d stage sum %v != latency %v", tr.ID, sum, tr.Latency())
	}
	return nil
}

// From returns the trace riding p's current request scope (nil when the
// proc is not executing a traced request). Deep layers use this — one
// pointer load on the untraced path.
func From(p *sim.Proc) *Trace {
	tr, _ := p.Ctx().Trace().(*Trace)
	return tr
}

// Attach puts tr on the scope (no-op for a nil trace or scope).
func Attach(c *sim.Ctx, tr *Trace) {
	if tr != nil {
		c.SetTrace(tr)
	}
}

// Tracer owns the bounded per-request retention: a ring of the most
// recent completed traces plus, per class, the K slowest exemplars. It
// also feeds per-stage critical-path histograms into an obs domain.
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

	stageH [numKinds]*obs.Histogram
	points []sim.Time // Seal's scratch for the breakdown sweep
}

// A tracer retains the recentRing most recent traces and the
// slowExemplars slowest per class.
const (
	recentRing    = 256
	slowExemplars = 16
)

// New builds a tracer.
func New() *Tracer {
	return &Tracer{
		recentCap: recentRing,
		slowCap:   slowExemplars,
		byClass:   make(map[string][]*Trace),
	}
}

// SetObs registers per-stage critical-path histograms
// ("reqtrace.stage.<kind>") in o, fed at each Seal.
func (t *Tracer) SetObs(o *obs.Obs) {
	if t == nil || o == nil {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		t.stageH[k] = o.Histogram("reqtrace.stage."+k.String(), obs.LatencyBounds)
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
