package sim

import "errors"

// Cancellation / deadline errors. They are package-level sentinels so
// every layer (cache, stage, tertiary, jukebox) can classify an abandoned
// request with errors.Is without importing the front end.
var (
	// ErrDeadlineExceeded marks a request whose virtual-time deadline
	// passed before it completed.
	ErrDeadlineExceeded = errors.New("sim: deadline exceeded")
	// ErrCanceled marks a request canceled by its submitter.
	ErrCanceled = errors.New("sim: request canceled")
)

// Ctx is a per-request cancellation scope in virtual time, the simulator's
// analogue of context.Context. It travels with the Proc executing the
// request (Proc.PushCtx/PopCtx) so deep layers — the block map, the
// staging mechanism, the tertiary service, the jukebox drivers — can honor
// deadlines and cancellation without threading a new parameter through
// every call signature.
//
// The kernel is single-threaded, so no locking: Cancel, Err, and OnCancel
// all run inside the dispatch loop. A nil *Ctx is valid everywhere and
// never expires.
type Ctx struct {
	err    error
	wakers []func()
	expiry timer // the deadline's timer; fn is nil when none is armed
	trace  any   // opaque per-request trace (internal/obs/reqtrace)
	park   func(p *Proc, parked bool)
}

// NewCtx creates a cancellation scope. deadline is an absolute virtual
// time; 0 means no deadline (cancel-only). A deadline arms a kernel timer
// that cancels the scope with ErrDeadlineExceeded at that instant, waking
// every layer blocked on it through OnCancel; a deadline already past is
// born canceled.
func (k *Kernel) NewCtx(deadline Time) *Ctx {
	c := &Ctx{}
	switch {
	case deadline <= 0:
	case deadline < k.now:
		c.err = ErrDeadlineExceeded
	default:
		c.expiry.fn = func() { c.Cancel(ErrDeadlineExceeded) }
		k.push(deadline, nil, &c.expiry)
	}
	return c
}

// Disarm drops the scope's deadline timer, if one is still pending: the
// request it guards has finished, and its deadline cancels nothing. Err
// keeps its value. Nil-safe.
func (c *Ctx) Disarm() {
	if c != nil {
		c.expiry.fn = nil
	}
}

// Err reports why the scope is dead: ErrCanceled / ErrDeadlineExceeded,
// or nil while the request may still proceed. Nil-safe.
func (c *Ctx) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// Cancel kills the scope with the given cause (ErrCanceled when nil) and
// runs the registered wakers so procs blocked on condition variables
// re-check their predicates. Idempotent; the first cause wins. Nil-safe.
func (c *Ctx) Cancel(cause error) {
	if c == nil || c.err != nil {
		return
	}
	if cause == nil {
		cause = ErrCanceled
	}
	c.err = cause
	ws := c.wakers
	c.wakers = nil
	for _, w := range ws {
		w()
	}
}

// OnCancel registers a waker — typically a Cond.Broadcast closure — run
// when the scope is canceled. If the scope is already dead the waker runs
// immediately. Nil-safe (no-op on a nil scope).
func (c *Ctx) OnCancel(w func()) {
	if c == nil {
		return
	}
	if c.err != nil {
		w()
		return
	}
	c.wakers = append(c.wakers, w)
}

// SetTrace attaches an opaque per-request trace to the scope. The kernel
// never looks inside it — it exists so the request tracer
// (internal/obs/reqtrace) can ride the scope through every layer that
// already propagates Ctx, without sim importing the tracer. Nil-safe.
func (c *Ctx) SetTrace(v any) {
	if c == nil {
		return
	}
	c.trace = v
}

// Trace returns the opaque trace attached with SetTrace (nil when none,
// or on a nil scope).
func (c *Ctx) Trace() any {
	if c == nil {
		return nil
	}
	return c.trace
}

// SetParkHook registers the request owner's interest in long waits: a layer
// that is about to sleep on slow storage on the request's behalf calls
// Park(p) before the wait and Unpark(p) after it, on every path out, and the
// hook runs inside both calls (parked true, then false). The owner may give
// away what the request holds while parked and may block in the unpark call
// to take it back — as with the trace, without sim or the waiting layer
// importing the owner. Nil-safe.
func (c *Ctx) SetParkHook(h func(p *Proc, parked bool)) {
	if c != nil {
		c.park = h
	}
}

// Park tells the scope's owner that p starts a long wait. Nil-safe.
func (c *Ctx) Park(p *Proc) {
	if c != nil && c.park != nil {
		c.park(p, true)
	}
}

// Unpark tells the owner the wait is over; it may block. Nil-safe.
func (c *Ctx) Unpark(p *Proc) {
	if c != nil && c.park != nil {
		c.park(p, false)
	}
}

// Ctx returns the cancellation scope attached to the process (nil when
// none is attached).
func (p *Proc) Ctx() *Ctx { return p.ctx }

// CtxErr is shorthand for p.Ctx().Err().
func (p *Proc) CtxErr() error { return p.ctx.Err() }

// PushCtx attaches a cancellation scope to the process for the duration
// of a request, returning a restore function for the previous scope.
// Layers below read it with p.Ctx(); the worker running requests
// back-to-back pushes a fresh scope per request.
func (p *Proc) PushCtx(c *Ctx) (restore func()) {
	prev := p.ctx
	p.ctx = c
	return func() { p.ctx = prev }
}
