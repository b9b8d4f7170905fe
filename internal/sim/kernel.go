// Package sim provides a deterministic discrete-event simulation kernel.
//
// All HighLight components (file system, cleaner, migrator, device drivers)
// execute as cooperating processes (Proc) inside a Kernel. Exactly one
// process runs at a time; a process yields control whenever it blocks on
// virtual time (Sleep) or on a synchronization primitive (Resource, Cond,
// Chan). The kernel dispatches the earliest pending event, so runs are fully
// deterministic: the same program produces the same virtual-time trace on
// every host. A timer (At) is an event with no process: Run calls its
// function itself.
//
// A process runs on a coroutine (iter.Pull) that Run switches to directly,
// without a trip through the Go scheduler; a process whose own wake-up
// would be the next event keeps running and only the clock moves. DESIGN.md
// "Kernel execution model" has the rules.
//
// Virtual time is a time.Duration measured from the start of the run.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// Time is a point in virtual time, measured from the start of the run.
type Time = time.Duration

// procState describes what a Proc is currently doing, for deadlock reports.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateSleeping
	stateBlocked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// Proc is a simulated process. A Proc handle is passed to every blocking
// operation; it must only be used from inside that process.
type Proc struct {
	k      *Kernel
	name   string
	daemon bool
	state  procState
	ctx    *Ctx // cancellation scope of the request being executed, if any

	// blockKind and blockOn are what the proc is blocked on, while it is: the
	// kind of wait ("acquire", "wait") and the object's name, joined only by
	// describeBlocked.
	blockKind, blockOn string

	fn func(p *Proc) // the process body, which Restart runs again
	co *coro         // coroutine fn runs on: set at first dispatch, nil again when done

	switches int64 // times the dispatcher switched to this proc
}

// coro is a coroutine that runs procs, one at a time. Run resumes it with
// next — a direct switch, no trip through the Go scheduler — and the proc
// bound to it hands control back with yield whenever it blocks. When the
// proc finishes, the coroutine parks itself on the kernel's idle list and
// the next proc to be dispatched for the first time is bound to it, so a
// stream of short-lived procs (the stripe farm spawns one per component
// per request) reuses a handful of coroutines and their stacks.
type coro struct {
	p     *Proc                   // proc bound to it; nil while idle
	next  func() (struct{}, bool) // switch to the coroutine until it yields
	stop  func()                  // make the parked yield return false, wait for the body to return
	yield func(struct{}) bool     // switch back to whoever called next or stop
}

// Name returns the process name given to Go or GoDaemon.
func (p *Proc) Name() string { return p.name }

// Kernel reports the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// event is a scheduled wake-up of a process, or a timer's call.
type event struct {
	t   Time
	seq uint64 // tiebreaker: FIFO among events at the same time
	p   *Proc  // nil for a timer
	tm  *timer
}

// timer is a function Run calls at a virtual time on no proc: a time-out
// is an entry in the event list, not a process. Disarming it (fn = nil)
// leaves a tombstone in the heap that Run drops when it pops it.
type timer struct{ fn func() }

// eventHeap is a binary min-heap ordered by (time, seq). It is a concrete
// implementation rather than container/heap: push and pop sit on the
// kernel's dispatch path for every blocking operation in the simulation,
// and the interface{} boxing of heap.Push/heap.Pop costs an allocation per
// event. The sift-up/sift-down order matches container/heap exactly, so
// event dispatch order — and therefore every virtual-time trace — is
// unchanged (pinned by TestEventHeapMatchesContainerHeap).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !s.less(j, parent) {
			break
		}
		s[j], s[parent] = s[parent], s[j]
		j = parent
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	j := 0
	for {
		left := 2*j + 1
		if left >= n {
			break
		}
		small := left
		if right := left + 1; right < n && s.less(right, left) {
			small = right
		}
		if !s.less(small, j) {
			break
		}
		s[j], s[small] = s[small], s[j]
		j = small
	}
	e := s[n]
	s[n] = event{} // drop the Proc reference so the backing array does not pin it
	*h = s[:n]
	return e
}

// Kernel is a discrete-event scheduler. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	procs   []*Proc // procs not yet done, in spawn order
	idle    []*coro // coroutines whose proc finished, parked until the next first dispatch
	live    int     // non-daemon procs not yet done
	stopped bool
	failure interface{} // panic value captured from a proc
	stack   []byte      // stack trace of the captured panic

	// Self-profiling (profile.go). Event and heap counters are always
	// maintained — they are single integer ops on the dispatch path —
	// while the wall-clock timers run only when profEnabled is set, so an
	// unprofiled run pays no time.Now() calls.
	profEnabled    bool
	profEvents     int64 // events dispatched to a proc
	profEventsMark int64 // profEvents at EnableProfile, for the window rate
	profInPlace    int64 // of profEvents, self-wakes Sleep served without a switch
	profSwitches   int64 // of profEvents, those Run switched to a coroutine for
	profSkipped    int64 // popped events whose proc was already done
	profWallNs     int64 // wall time spent inside Run while profiling
	profDispatchNs int64 // wall time in scheduler bookkeeping (heap pop, clock)
	profProcNs     int64 // wall time procs held the CPU (incl. the two coroutine switches, and attach)
	heapHighWater  int   // deepest the event heap has ever been
	spawned        int   // procs ever spawned
	// doneSwitches folds the dispatch counts of finished procs by name
	// (procs itself only lists live ones). No proc is named per request.
	doneSwitches map[string]int64
}

// NewKernel returns a kernel with virtual time zero and no processes.
func NewKernel() *Kernel {
	return &Kernel{
		doneSwitches: make(map[string]int64),
		// Preallocate the event queue: steady-state simulations keep a
		// few hundred pending wake-ups, and growing the array on the
		// dispatch path is pure overhead.
		events: make(eventHeap, 0, 256),
	}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// AdvanceTo moves an idle kernel's clock forward (used when resuming a
// persisted simulation at its saved epoch). It panics if events are
// pending or t is in the past.
func (k *Kernel) AdvanceTo(t Time) {
	if len(k.events) > 0 {
		panic("sim: AdvanceTo with pending events")
	}
	if t < k.now {
		panic("sim: AdvanceTo into the past")
	}
	k.now = t
}

// Go starts fn as a new process named name. The process first runs when the
// kernel dispatches it (at the current virtual time, after already-runnable
// processes). Run returns only after every non-daemon process has finished.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, false, fn)
}

// GoDaemon starts a background process that does not keep Run alive: Run
// returns once all non-daemon processes have finished, even if daemons are
// still sleeping or blocked.
func (k *Kernel) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, true, fn)
}

func (k *Kernel) spawn(name string, daemon bool, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, daemon: daemon, state: stateDone, fn: fn}
	k.Restart(p)
	return p
}

// Restart runs the finished process p again, body and all: a spawn with p's
// name and kind, at the place in the event order and with the sequence
// number a Go would have, counted as one, that reuses p's handle instead of
// allocating one. Only the code that spawned p, holding the only reference
// to it, may restart it (DESIGN.md "Kernel execution model").
func (k *Kernel) Restart(p *Proc) {
	if p.k != k || p.state != stateDone {
		panic(fmt.Sprintf("sim: restart of proc %q in state %v", p.name, p.state))
	}
	p.state, p.ctx, p.switches = stateNew, nil, 0
	k.procs = append(k.procs, p)
	k.spawned++
	if !p.daemon {
		k.live++
	}
	k.schedule(k.now, p)
}

// attach binds p, about to be dispatched for the first time, to an idle
// coroutine, or to a new one when none is idle.
func (k *Kernel) attach(p *Proc) {
	var c *coro
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		c = k.newCoro()
	}
	c.p, p.co = p, c
}

// newCoro creates a coroutine; its body starts at the first next. Between
// procs the coroutine belongs to k.idle, whose entries are all parked in
// the yield below; Stop ends them.
func (k *Kernel) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for k.exec(c) {
			k.idle = append(k.idle, c)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// exec runs the proc bound to c to its end. It reports whether c may run
// another proc: not after a panic (the failure is Run's to report) or
// after Stop unwound the proc — the body returns and the coroutine ends.
func (k *Kernel) exec(c *coro) (reusable bool) {
	p := c.p
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopProc); !ok {
				k.failure = fmt.Sprintf("proc %q panicked: %v", p.name, r)
				k.stack = debug.Stack()
			}
		}
		c.p = nil
		k.finish(p)
	}()
	p.state = stateRunning
	p.fn(p)
	return true
}

// finish retires p: it leaves the live list (the order of the others is
// kept, so Stop unwinds in spawn order) and its dispatch count is folded
// into the per-name totals.
func (k *Kernel) finish(p *Proc) {
	p.state = stateDone
	p.co = nil
	if !p.daemon {
		k.live--
	}
	// Short-lived procs are the youngest, so search from the end.
	for i := len(k.procs) - 1; i >= 0; i-- {
		if k.procs[i] == p {
			k.procs = slices.Delete(k.procs, i, i+1)
			break
		}
	}
	k.doneSwitches[p.name] += p.switches
}

// stopProc is panicked inside procs to unwind them when the kernel shuts
// down.
type stopProc struct{}

func (k *Kernel) schedule(t Time, p *Proc) {
	k.push(t, p, nil)
	if p.state != stateNew {
		p.state = stateRunnable
	}
}

// push queues p's wake-up or tm's call at t, or now if t is past.
func (k *Kernel) push(t Time, p *Proc, tm *timer) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events.push(event{t: t, seq: k.seq, p: p, tm: tm})
	if len(k.events) > k.heapHighWater {
		k.heapHighWater = len(k.events)
	}
}

// At calls fn at virtual time t (now, if t is past), in (t, seq) order
// with every other event. fn runs on no proc, from Run's own loop: it must
// not block, and it may wake procs. A timer keeps no Run alive and is not
// counted as an event, a proc or a switch.
func (k *Kernel) At(t Time, fn func()) { k.push(t, nil, &timer{fn}) }

// wake moves a blocked process back to the run queue at the current time.
// It is used by synchronization primitives.
func (k *Kernel) wake(p *Proc) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: waking proc %q in state %v", p.name, p.state))
	}
	k.schedule(k.now, p)
}

// Sleep suspends the process for d of virtual time. A non-positive d yields
// the processor but stays at the current time (other runnable processes get
// to execute first).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	t := k.now + d
	if !k.stopped && (len(k.events) == 0 || k.events[0].t > t) {
		// Self-wake in place: p's wake-up, if pushed, would be the very
		// next event Run pops, so advance the clock here and keep running.
		// The comparison is strict because a pending event at exactly t
		// has a lower sequence number and runs first.
		if len(k.events) >= k.heapHighWater {
			k.heapHighWater = len(k.events) + 1 // the depth the push would have reached
		}
		k.now = t
		k.profEvents++
		k.profInPlace++
		return
	}
	k.schedule(t, p)
	p.state = stateSleeping
	p.yieldToKernel()
}

// suspend blocks the process until another process wakes it via k.wake.
// kind and on describe the wait for deadlock diagnostics: the kind of wait
// and the name of what it waits on.
func (p *Proc) suspend(kind, on string) {
	p.state = stateBlocked
	p.blockKind, p.blockOn = kind, on
	p.yieldToKernel()
	p.blockKind, p.blockOn = "", ""
}

// yieldToKernel hands control back to the scheduler and waits to be resumed.
func (p *Proc) yieldToKernel() {
	if !p.co.yield(struct{}{}) {
		panic(stopProc{}) // resumed by Stop, not by an event
	}
	p.state = stateRunning
}

// Run dispatches events until every non-daemon process has finished. It
// panics if a process panicked, or if non-daemon processes remain but no
// event can ever wake them (deadlock).
func (k *Kernel) Run() {
	// profiled is latched at entry: enabling mid-run takes effect at the
	// next Run call, so the timer arithmetic inside one loop is uniform.
	profiled := k.profEnabled
	var runStart, t0, t1 time.Time
	if profiled {
		runStart = time.Now()
	}
	for k.live > 0 {
		if len(k.events) == 0 {
			panic("sim: deadlock — " + k.describeBlocked())
		}
		if profiled {
			t0 = time.Now()
		}
		e := k.events.pop()
		if e.tm != nil {
			if fn := e.tm.fn; fn != nil {
				k.now = e.t
				fn()
			}
			continue
		}
		p := e.p
		if p.state == stateDone {
			k.profSkipped++
			continue // proc was unwound by Stop while an event was pending
		}
		k.now = e.t
		k.profEvents++
		k.profSwitches++
		p.switches++
		if profiled {
			t1 = time.Now()
			k.profDispatchNs += t1.Sub(t0).Nanoseconds()
		}
		if p.co == nil {
			k.attach(p)
		}
		p.co.next() // returns when p blocks or finishes
		if profiled {
			k.profProcNs += time.Since(t1).Nanoseconds()
		}
		if k.failure != nil {
			f, st := k.failure, k.stack
			k.failure, k.stack = nil, nil
			panic(fmt.Sprintf("%v\n%s", f, st))
		}
	}
	if profiled {
		k.profWallNs += time.Since(runStart).Nanoseconds()
	}
}

// RunProc spawns fn as a process and runs the kernel until all non-daemon
// processes (including fn) finish. It is the standard way for tests and
// examples to execute code in virtual time.
func (k *Kernel) RunProc(fn func(p *Proc)) {
	k.Go("main", fn)
	k.Run()
}

// Stop unwinds all still-live processes, in spawn order, and ends the idle
// coroutines. After Stop the kernel must not be reused. It is intended for
// tearing down daemons after Run returns.
func (k *Kernel) Stop() {
	k.stopped = true
	// finish edits k.procs, so walk a copy.
	for _, p := range slices.Clone(k.procs) {
		if p.co == nil {
			k.finish(p) // never dispatched: no coroutine, nothing to unwind
			continue
		}
		// The proc is parked in yieldToKernel, which now panics with
		// stopProc; stop returns once exec has recovered it.
		p.co.stop()
	}
	for _, c := range k.idle {
		c.stop()
	}
	k.idle = nil
}

// describeBlocked summarizes what every live process is waiting on.
func (k *Kernel) describeBlocked() string {
	var lines []string
	for _, p := range k.procs {
		d := ""
		if p.daemon {
			d = " (daemon)"
		}
		why := p.blockKind + " " + p.blockOn
		if p.blockKind == "" {
			why = p.state.String()
		}
		lines = append(lines, fmt.Sprintf("%s%s: %s", p.name, d, why))
	}
	sort.Strings(lines)
	return fmt.Sprintf("no pending events, %d procs stuck: %v", len(lines), lines)
}
