// Package svc is HighLight's overload-hardened request front end: the
// admission-control layer between clients (the workload generators, the
// CLIs) and the core file system.
//
// Requests move through a typed lifecycle — submit → admit → queue →
// execute → complete/fail — with per-request virtual-time deadlines and
// cancellation propagated down through the cache, staging, tertiary, and
// jukebox layers via sim.Ctx. Admission queues are bounded per class
// (interactive reads vs. background migration work); a full queue sheds
// the request immediately with ErrOverload rather than letting it stall
// silently. A sick library is the fetch router's business
// (tertiary.Service.readOrder ranks a down library last and the I/O
// process falls back to the next copy), not the front end's.
//
// Graceful degradation is ordered: under interactive-queue pressure the
// front end enters "brownout", throttling background migration first
// while interactive requests keep a reserved worker quota. Every shed and
// brownout transition is recorded in the decision audit (`hldump -why`
// counts them), and queue depths, shed rates and admission-to-completion
// latency histograms are exported through the shared observability
// domain. An admission is counted (svc.admitted) and marked in its
// request's trace.
package svc

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// ErrOverload marks a request shed at admission because its class queue
// was full. Clients match it with errors.Is and either retry (against the
// front end's retry budget) or report the shed upward — the one thing the
// front end guarantees is that overload is an explicit error, never a
// silent stall.
var ErrOverload = errors.New("svc: overloaded, request shed")

// Class partitions the admission queues. Workers serve them in strict
// priority, Interactive first.
type Class int

const (
	// Interactive is the latency-sensitive class: demand reads, user
	// requests. It has the larger queue and a reserved worker quota.
	Interactive Class = iota
	// Background is the throughput class: migration batches, repair-ish
	// bulk work. It sheds first and is throttled during brownout.
	Background

	numClasses
)

func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Background:
		return "background"
	}
	return "unknown"
}

// Config bounds the front end.
type Config struct {
	// Workers is the number of execution slots: how many requests run at
	// once (default 4). An interactive request asleep in a tertiary demand
	// fetch lends its slot to the interactive queue, so up to Workers more
	// may be in flight, parked (FrontEnd.park).
	Workers int
	// ReservedInteractive is how many slots serve only the interactive
	// queue — the quota that keeps interactive requests moving during
	// background floods (default 1, clamped below Workers).
	ReservedInteractive int
	// InteractiveQueue / BackgroundQueue bound their classes' admission
	// queues (defaults 64 / 16). A submit against a full queue is shed with
	// ErrOverload. Interactive requests running in lent slots count as
	// queued (FrontEnd.backlog), here and for the brownout watermarks, half
	// and an eighth of InteractiveQueue (FrontEnd.updateBrownout).
	InteractiveQueue int
	BackgroundQueue  int
	// DisableTracing turns off the per-request causal tracer. Tracing is
	// pure observation (no virtual time, no RNG) so the default is on;
	// the switch exists for the ablation_reqtrace bench row, which proves
	// a traced run's metrics are bit-identical to an untraced one.
	DisableTracing bool
}

const (
	// retryBudget caps banked retry tokens; retryPerAdmits admissions earn
	// one: at most ~10% of admitted traffic can be retries, so retries
	// cannot amplify an overload into a collapse.
	retryBudget    = 8
	retryPerAdmits = 10
)

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.ReservedInteractive <= 0 {
		c.ReservedInteractive = 1
	}
	if c.ReservedInteractive >= c.Workers {
		c.ReservedInteractive = c.Workers - 1
	}
	if c.InteractiveQueue <= 0 {
		c.InteractiveQueue = 64
	}
	if c.BackgroundQueue <= 0 {
		c.BackgroundQueue = 16
	}
}

// Request is one unit of admitted work moving through the lifecycle.
type Request struct {
	ID       int64
	Class    Class
	Deadline sim.Time // absolute virtual time; 0 = none

	fn  func(p *sim.Proc) error
	ctx *sim.Ctx

	trace  *obs.Trace
	queued obs.Interval // its wait in the admission queue
	lent   bool         // parked in a demand fetch with its slot given up

	submitT  sim.Time
	startT   sim.Time // 0 until execution begins
	endT     sim.Time
	finished bool
	err      error
	done     *sim.Cond
}

// Wait blocks until the request completes or is shed, returning its error.
func (r *Request) Wait(p *sim.Proc) error {
	for !r.finished {
		r.done.Wait(p)
	}
	return r.err
}

// FrontEnd is the admission-controlled request front end over one
// HighLight instance. Create it with New; all methods must be called from
// procs of the instance's kernel.
type FrontEnd struct {
	HL  *core.HighLight
	Cfg Config
	// Tracer is the per-request causal tracer (nil when
	// Config.DisableTracing). Every admitted request gets a Trace riding
	// its sim.Ctx; the slowest exemplars per class and a recent ring are
	// retained for hldump -request/-slowest and `hlbench -requests`.
	Tracer *obs.Tracer

	k      *sim.Kernel
	queues [numClasses]sim.Queue[*Request]
	work   *sim.Cond
	nextID int64

	// Slot accounting. exec <= Workers and execBG <= Workers -
	// ReservedInteractive at every instant; lent <= Workers, so at most
	// 2 x Workers requests are in flight, one per worker process.
	exec     int    // requests holding a slot: running, or parked without lending
	execBG   int    // the Background ones among them
	lent     int    // interactive requests parked with their slot given up
	resuming int    // of those, the ones awake and waiting to take a slot back
	onSlot   func() // test hook, run after every change to the four above

	brownout        bool
	retryTokens     int
	admitsSinceEarn int

	// Instruments (all exported via the shared obs domain).
	qGauge    [numClasses]*obs.Gauge
	latH      [numClasses]*obs.Histogram
	admitted  *obs.Counter
	shed      *obs.Counter
	expiredQ  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	misses    *obs.Counter
	retryOK   *obs.Counter
	retryNo   *obs.Counter
	brownG    *obs.Gauge
	lentG     *obs.Gauge
}

// New builds the front end over hl and starts the worker processes.
// Attach the migrator's throttle with AttachMigrator.
func New(hl *core.HighLight, cfg Config) *FrontEnd {
	cfg.fill()
	fe := &FrontEnd{
		HL:          hl,
		Cfg:         cfg,
		k:           hl.K,
		work:        hl.K.NewCond("svc.work"),
		retryTokens: retryBudget,
	}

	o := hl.Obs
	if !cfg.DisableTracing {
		fe.Tracer = obs.NewTracer()
		fe.Tracer.SetObs(o)
	}
	for c := Class(0); c < numClasses; c++ {
		fe.qGauge[c] = o.Gauge("svc.queue." + c.String())
		fe.latH[c] = o.Histogram("svc.latency."+c.String(), obs.LatencyBounds)
	}
	fe.admitted = o.Counter("svc.admitted")
	fe.shed = o.Counter("svc.shed")
	fe.expiredQ = o.Counter("svc.expired_in_queue")
	fe.completed = o.Counter("svc.completed")
	fe.failed = o.Counter("svc.failed")
	fe.misses = o.Counter("svc.deadline_misses")
	fe.retryOK = o.Counter("svc.retries_granted")
	fe.retryNo = o.Counter("svc.retries_denied")
	fe.brownG = o.Gauge("svc.brownout")
	fe.lentG = o.Gauge("svc.slots_lent")

	for i := 0; i < 2*cfg.Workers; i++ {
		fe.k.GoDaemon(fmt.Sprintf("svc-worker-%d", i), fe.worker)
	}
	return fe
}

// AttachMigrator points the migrator's brownout throttle at the front
// end, so background migration stands down while interactive queues are
// deep.
func (fe *FrontEnd) AttachMigrator(m *migrate.Migrator) {
	m.Throttle = fe.inBrownout
}

// inBrownout reports whether the front end is currently shedding
// background work to protect interactive latency.
func (fe *FrontEnd) inBrownout() bool { return fe.brownout }

// Submit admits fn under class with an absolute virtual-time deadline
// (0 = none), waits for it to complete, and returns its error. A full
// queue returns ErrOverload immediately.
func (fe *FrontEnd) Submit(p *sim.Proc, class Class, deadline sim.Time, fn func(p *sim.Proc) error) error {
	r, err := fe.SubmitAsync(p, class, deadline, fn)
	if err != nil {
		return err
	}
	return r.Wait(p)
}

// SubmitAsync admits fn and returns without waiting; call Wait on the
// returned request. A full queue sheds with ErrOverload (nil request).
func (fe *FrontEnd) SubmitAsync(p *sim.Proc, class Class, deadline sim.Time, fn func(p *sim.Proc) error) (*Request, error) {
	capacity := fe.Cfg.InteractiveQueue
	if class == Background {
		capacity = fe.Cfg.BackgroundQueue
	}
	fe.nextID++
	id := fe.nextID
	depth := fe.queues[class].Len()
	if class == Interactive {
		depth = fe.backlog()
	}
	if depth >= capacity {
		fe.shed.Add(1)
		fe.HL.Audit.Record(attr.Decision{
			T: p.Now(), Actor: "svc", Subject: fmt.Sprintf("req:%d", id),
			Seg: -1, Verdict: attr.VerdictShed, Reason: class.String() + " queue full",
			Inputs: []attr.Input{
				attr.In("class", float64(class)),
				attr.In("depth", float64(depth)),
				attr.In("capacity", float64(capacity)),
			},
		})
		return nil, fmt.Errorf("%w: %s queue full (%d)", ErrOverload, class, capacity)
	}
	r := &Request{
		ID:       id,
		Class:    class,
		Deadline: deadline,
		fn:       fn,
		ctx:      fe.k.NewCtx(deadline),
		submitT:  p.Now(),
		done:     fe.k.NewCond(fmt.Sprintf("svc.req-%d", id)),
	}
	if class == Interactive {
		r.ctx.SetParkHook(func(p *sim.Proc, parked bool) {
			if parked {
				fe.park(p, r)
			} else {
				fe.unpark(p, r)
			}
		})
	}
	r.trace = fe.Tracer.Start(id, class.String(), p.Now(), deadline)
	r.ctx.SetTrace(r.trace)
	r.trace.Begin(p, obs.KindAdmission).End(nil, "", "", "admitted")
	r.queued = r.trace.Begin(p, obs.KindQueueWait)
	fe.admitted.Add(1)
	fe.earnRetryToken()
	fe.queues[class].Push(r)
	fe.qGauge[class].Set(int64(fe.queues[class].Len()))
	fe.updateBrownout()
	fe.work.Broadcast()
	return r, nil
}

// AllowRetry spends one retry token if any are banked. Clients call it
// after an ErrOverload shed; a false return means the budget is exhausted
// and the client must surface the shed instead of retrying.
func (fe *FrontEnd) AllowRetry() bool {
	if fe.retryTokens > 0 {
		fe.retryTokens--
		fe.retryOK.Add(1)
		return true
	}
	fe.retryNo.Add(1)
	return false
}

// earnRetryToken banks one retry token per retryPerAdmits admissions,
// up to retryBudget.
func (fe *FrontEnd) earnRetryToken() {
	fe.admitsSinceEarn++
	if fe.admitsSinceEarn >= retryPerAdmits {
		fe.admitsSinceEarn = 0
		if fe.retryTokens < retryBudget {
			fe.retryTokens++
		}
	}
}

// backlog is the interactive queue plus the requests in flight beyond
// Workers, which run in slots that parked requests lent and would be queued
// if slots were not lent. Admission (InteractiveQueue) and the brownout
// watermarks go by it, so lending changes who runs when, not how much
// interactive work is let in nor when background work stands down.
func (fe *FrontEnd) backlog() int {
	return fe.queues[Interactive].Len() + max(0, fe.exec+fe.lent-fe.Cfg.Workers)
}

// updateBrownout applies the hysteresis watermarks to the interactive
// backlog and records transitions in the audit: at half of InteractiveQueue
// the front end enters brownout (background migration stands down), at an
// eighth it exits.
func (fe *FrontEnd) updateBrownout() {
	now := fe.k.Now()
	depth := fe.backlog()
	hi, lo := fe.Cfg.InteractiveQueue/2, fe.Cfg.InteractiveQueue/8
	switch {
	case !fe.brownout && depth >= hi:
		fe.brownout = true
		fe.brownG.Set(1)
		fe.HL.Audit.Record(attr.Decision{
			T: now, Actor: "svc", Subject: "brownout",
			Seg: -1, Verdict: attr.VerdictBrownout, Reason: "enter: interactive queue over high watermark",
			Inputs: []attr.Input{
				attr.In("depth", float64(depth)),
				attr.In("hi", float64(hi)),
			},
		})
	case fe.brownout && depth <= lo:
		fe.brownout = false
		fe.brownG.Set(0)
		fe.HL.Audit.Record(attr.Decision{
			T: now, Actor: "svc", Subject: "brownout",
			Seg: -1, Verdict: attr.VerdictBrownout, Reason: "exit: interactive queue under low watermark",
			Inputs: []attr.Input{
				attr.In("depth", float64(depth)),
				attr.In("lo", float64(lo)),
			},
		})
	}
}

// worker is one request-executing process; there are 2 x Workers of them,
// one for every request that can be in flight, and the slot counters decide
// how many run. Interactive goes first, then background — strict priority,
// which combined with the reserved quota is what keeps interactive latency
// bounded while background work floods.
func (fe *FrontEnd) worker(p *sim.Proc) {
	for {
		r := fe.dequeue(p)
		r.queued.End(nil, "", "", "")
		// Queued expiry: a request whose deadline passed (or that was
		// canceled) while waiting is shed here, before any layer below
		// sees it — no fetch is queued, no staging line touched.
		if err := r.ctx.Err(); err != nil {
			fe.expiredQ.Add(1)
			fe.HL.Audit.Record(attr.Decision{
				T: p.Now(), Actor: "svc", Subject: fmt.Sprintf("req:%d", r.ID),
				Seg: -1, Verdict: attr.VerdictShed, Reason: "expired in queue: " + err.Error(),
				Inputs: []attr.Input{
					attr.In("class", float64(r.Class)),
					attr.In("waited_ms", float64((p.Now() - r.submitT).Milliseconds())),
				},
			})
			fe.complete(r, fmt.Errorf("svc: request %d shed before execution: %w", r.ID, err))
			fe.release(r)
			continue
		}
		r.startT = p.Now()
		if r.trace != nil {
			r.trace.Start = r.startT
		}
		restore := p.PushCtx(r.ctx)
		err := r.fn(p)
		restore()
		if r.Deadline > 0 && p.Now() > r.Deadline {
			fe.misses.Add(1)
		}
		fe.complete(r, err)
		fe.release(r)
	}
}

// release gives r's slot back. The worker looks for its next request
// itself; only a parked request waiting to resume has to be told.
func (fe *FrontEnd) release(r *Request) {
	fe.slots(-1, r.Class, 0)
	if fe.resuming > 0 {
		fe.work.Broadcast()
	}
}

// slots moves the counters: d requests of class c more (or fewer) hold a
// slot, l more (or fewer) have lent theirs.
func (fe *FrontEnd) slots(d int, c Class, l int) {
	fe.exec += d
	if c != Interactive {
		fe.execBG += d
	}
	fe.lent += l
	fe.lentG.Set(int64(fe.lent))
	fe.updateBrownout()
	if fe.onSlot != nil {
		fe.onSlot()
	}
}

// dequeue pops the next request that may run and takes its slot, blocking
// while there is none.
func (fe *FrontEnd) dequeue(p *sim.Proc) *Request {
	for {
		for c := Interactive; c < numClasses; c++ {
			if q := &fe.queues[c]; q.Len() > 0 && fe.mayStart(c) {
				r := q.Pop()
				fe.qGauge[c].Set(int64(q.Len()))
				fe.slots(1, c, 0)
				return r
			}
		}
		fe.work.Wait(p)
	}
}

// mayStart reports whether a queued request of class c may take a slot now.
// A parked request coming back goes ahead of every queue. Background work
// runs in the slots that are neither reserved nor lent: a parked
// interactive request still occupies its slot as far as it is concerned,
// so it sees the front end exactly as if nothing lent.
func (fe *FrontEnd) mayStart(c Class) bool {
	w := fe.Cfg.Workers
	if fe.exec >= w || fe.resuming > 0 {
		return false
	}
	return c == Interactive || fe.exec+fe.lent < w && fe.execBG < w-fe.Cfg.ReservedInteractive
}

// park is the request's sim.Ctx park hook: r is about to sleep in a demand
// fetch. It gives its slot to the interactive queue, with two exceptions in
// which it sleeps holding the slot. Workers slots are out on loan already; or
// it fetches under the file-system lock (a mutating operation, or a reader's
// last attempt after lfs.maxRestarts unlocked ones): the requests that took
// the lent slots would all queue on that lock, none would finish to give r a
// slot back, and r would wait for one in unpark with the lock held for ever.
func (fe *FrontEnd) park(p *sim.Proc, r *Request) {
	if fe.lent >= fe.Cfg.Workers || fe.HL.FS.LockedBy(p) {
		return
	}
	r.lent = true
	fe.slots(-1, Interactive, 1)
	fe.work.Broadcast()
}

// unpark ends the loan, on the way out of the fetch or of its abandoned
// wait: r takes the next slot that comes free, ahead of every queue. The
// wait is a second queue-wait stage of its trace.
func (fe *FrontEnd) unpark(p *sim.Proc, r *Request) {
	if !r.lent {
		return
	}
	r.lent = false
	if fe.exec < fe.Cfg.Workers {
		fe.slots(1, Interactive, -1)
		return
	}
	iv := r.trace.Begin(p, obs.KindQueueWait)
	fe.resuming++
	for fe.exec >= fe.Cfg.Workers {
		fe.work.Wait(p)
	}
	fe.resuming--
	iv.End(nil, "", "", "resume")
	fe.slots(1, Interactive, -1)
	if fe.resuming == 0 && fe.exec < fe.Cfg.Workers {
		fe.work.Broadcast() // workers that stood back while this one waited
	}
}

// complete moves a request to its terminal state and wakes its waiters.
func (fe *FrontEnd) complete(r *Request, err error) {
	r.finished = true
	r.ctx.Disarm()
	r.err = err
	r.endT = fe.k.Now()
	fe.latH[r.Class].Observe(r.endT - r.submitT)
	fe.Tracer.Seal(r.trace, r.endT, err)
	if err == nil {
		fe.completed.Add(1)
	} else {
		fe.failed.Add(1)
	}
	r.done.Broadcast()
}

// Stats is a front-end snapshot for reports and tests.
type Stats struct {
	Admitted, Shed, ExpiredInQueue int64
	Completed, Failed              int64
	DeadlineMisses                 int64
	RetriesGranted, RetriesDenied  int64
	QueueInteractive               int
	QueueBackground                int
	Executing, Lent                int // slots held; slots lent by parked requests
	Brownout                       bool
	P50Interactive, P99Interactive sim.Time
	P50Background, P99Background   sim.Time
}

// Stats snapshots the counters and latency quantiles.
func (fe *FrontEnd) Stats() Stats {
	return Stats{
		Admitted:         fe.admitted.Value(),
		Shed:             fe.shed.Value(),
		ExpiredInQueue:   fe.expiredQ.Value(),
		Completed:        fe.completed.Value(),
		Failed:           fe.failed.Value(),
		DeadlineMisses:   fe.misses.Value(),
		RetriesGranted:   fe.retryOK.Value(),
		RetriesDenied:    fe.retryNo.Value(),
		QueueInteractive: fe.queues[Interactive].Len(),
		QueueBackground:  fe.queues[Background].Len(),
		Executing:        fe.exec,
		Lent:             fe.lent,
		Brownout:         fe.brownout,
		P50Interactive:   fe.latH[Interactive].P50(),
		P99Interactive:   fe.latH[Interactive].P99(),
		P50Background:    fe.latH[Background].P50(),
		P99Background:    fe.latH[Background].P99(),
	}
}
