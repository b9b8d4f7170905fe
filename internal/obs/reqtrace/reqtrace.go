// Package reqtrace is the per-request causal trace: where did this one
// request's latency come from? The aggregate observability layers
// (internal/obs, internal/obs/attr) can say "p99 stall is X"; reqtrace
// answers "request N spent 80% of its deadline waiting on a drive swap".
//
// A Trace rides the request's sim.Ctx (Ctx.SetTrace / Ctx.Trace) from
// front-end admission down through the cache directory, the striped disk
// farm, the tertiary service, and the jukebox drivers. Each layer records
// typed stages — queue-wait, cache-lookup, fetch-wait, stripe-io, drive-swap,
// media-transfer, retry-backoff, breaker-wait, fs-lock, io-queue — against
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
	"fmt"
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
	// KindBreakerWait marks a fetch routed around an open circuit
	// breaker (zero duration — the detour's cost lands in the stages the
	// longer route pays).
	KindBreakerWait
	// KindFSLock is time an acquire of the file-system lock actually waited.
	KindFSLock
	// KindIOQueue is time a fetch's transfer sat in its library's I/O queue
	// with every I/O process of that library busy (inside its fetch-wait).
	KindIOQueue
	// KindExec is the residual: request time no recorded stage covers
	// (computation, buffer copies, unattributed waits).
	KindExec

	numKinds
)

var kindNames = [numKinds]string{
	"queue-wait", "admission", "cache-lookup", "fetch-wait", "stripe-io",
	"drive-swap", "media-transfer", "retry-backoff", "breaker-wait", "fs-lock",
	"io-queue", "exec",
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
// regardless: unrecorded time lands in the KindExec residual.
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

// PathSeg is one interval of the critical path: the innermost stage
// covering [Start, End), or the KindExec residual (StageIdx -1).
type PathSeg struct {
	Kind     Kind
	Note     string
	Start    sim.Time
	End      sim.Time
	StageIdx int
}

// CriticalPath partitions [Submit, End] into segments, each attributed
// to the innermost (latest-started; ties to the latest-recorded) stage
// open over it. Time no stage covers becomes a KindExec segment. The
// segments are contiguous and exactly cover the request's life, so
// their durations sum to Latency() by construction.
func (tr *Trace) CriticalPath() []PathSeg {
	if tr == nil || !tr.Done || tr.End <= tr.Submit {
		return nil
	}
	lo, hi := tr.Submit, tr.End
	clamp := func(t sim.Time) sim.Time {
		if t < lo {
			return lo
		}
		if t > hi {
			return hi
		}
		return t
	}
	points := make([]sim.Time, 0, 2*len(tr.Stages)+2)
	points = append(points, lo, hi)
	for i := range tr.Stages {
		points = append(points, clamp(tr.Stages[i].Start), clamp(tr.Stages[i].End))
	}
	sort.Slice(points, func(a, b int) bool { return points[a] < points[b] })
	var segs []PathSeg
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if b <= a {
			continue
		}
		// Innermost open stage over [a, b): max clamped Start, ties to
		// the latest-recorded stage (append order is causal order).
		best := -1
		var bestStart sim.Time
		for j := range tr.Stages {
			s := &tr.Stages[j]
			cs, ce := clamp(s.Start), clamp(s.End)
			if cs <= a && ce >= b {
				if best == -1 || cs >= bestStart {
					best, bestStart = j, cs
				}
			}
		}
		kind, note := KindExec, ""
		if best >= 0 {
			kind, note = tr.Stages[best].Kind, tr.Stages[best].Note
		}
		if n := len(segs); n > 0 && segs[n-1].StageIdx == best && segs[n-1].End == a {
			segs[n-1].End = b
			continue
		}
		segs = append(segs, PathSeg{Kind: kind, Note: note, Start: a, End: b, StageIdx: best})
	}
	return segs
}

// Breakdown sums the critical path per kind. The values cover every
// instant of the request exactly once: their sum equals Latency().
func (tr *Trace) Breakdown() [numKinds]sim.Time {
	var out [numKinds]sim.Time
	for _, s := range tr.CriticalPath() {
		out[s.Kind] += s.End - s.Start
	}
	return out
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

	started int64
	sealed  int64
	stages  int64

	stageH [numKinds]*obs.Histogram
}

// New builds a tracer retaining recentCap recent traces and slowCap
// slowest exemplars per class (defaults 256 and 16).
func New(recentCap, slowCap int) *Tracer {
	if recentCap <= 0 {
		recentCap = 256
	}
	if slowCap <= 0 {
		slowCap = 16
	}
	return &Tracer{
		recentCap: recentCap,
		slowCap:   slowCap,
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

// Start opens a trace for one request.
func (t *Tracer) Start(id int64, class string, submit, deadline sim.Time) *Trace {
	if t == nil {
		return nil
	}
	t.started++
	return &Trace{ID: id, Class: class, Submit: submit, Deadline: deadline}
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
	for k, d := range tr.Breakdown() {
		if d > 0 {
			t.stageH[k].Observe(d)
		}
	}
	// Recent ring.
	if len(t.recent) < t.recentCap {
		t.recent = append(t.recent, tr)
	} else {
		t.recent[t.next] = tr
	}
	t.next = (t.next + 1) % t.recentCap
	// Slowest exemplars, per class: kept sorted slowest-first, ties to
	// the earlier request, truncated to slowCap.
	if _, ok := t.byClass[tr.Class]; !ok {
		t.classes = append(t.classes, tr.Class)
	}
	ex := append(t.byClass[tr.Class], tr)
	sort.SliceStable(ex, func(a, b int) bool {
		if la, lb := ex[a].Latency(), ex[b].Latency(); la != lb {
			return la > lb
		}
		return ex[a].ID < ex[b].ID
	})
	if len(ex) > t.slowCap {
		ex = ex[:t.slowCap]
	}
	t.byClass[tr.Class] = ex
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
		sort.SliceStable(pool, func(a, b int) bool {
			if la, lb := pool[a].Latency(), pool[b].Latency(); la != lb {
				return la > lb
			}
			return pool[a].ID < pool[b].ID
		})
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
