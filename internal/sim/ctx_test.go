package sim

import (
	"errors"
	"testing"
	"time"
)

// Double-cancel is idempotent: the first cause sticks, later causes are
// dropped, and each registered waker runs exactly once.
func TestCtxDoubleCancelFirstCauseWins(t *testing.T) {
	k := NewKernel()
	c := k.NewCtx(0)
	woken := 0
	c.OnCancel(func() { woken++ })
	first := errors.New("first cause")
	c.Cancel(first)
	c.Cancel(errors.New("second cause"))
	c.Cancel(nil)
	if !errors.Is(c.Err(), first) {
		t.Fatalf("Err() = %v, want the first cause", c.Err())
	}
	if woken != 1 {
		t.Fatalf("waker ran %d times, want exactly once", woken)
	}
	// A waker registered after death runs immediately — and still only once
	// even if the scope is "canceled" again.
	late := 0
	c.OnCancel(func() { late++ })
	c.Cancel(errors.New("third cause"))
	if late != 1 {
		t.Fatalf("late waker ran %d times, want exactly once", late)
	}
}

func TestCtxCancelNilCauseDefaultsToCanceled(t *testing.T) {
	k := NewKernel()
	c := k.NewCtx(0)
	c.Cancel(nil)
	if !errors.Is(c.Err(), ErrCanceled) {
		t.Fatalf("Err() = %v, want ErrCanceled", c.Err())
	}
}

// A deadline that has already expired is the scope's cause of death; a
// cancel arriving afterwards must not replace it.
func TestCtxDeadlineBeatsLateCancel(t *testing.T) {
	k := NewKernel()
	c := k.NewCtx(Time(5 * time.Second))
	k.RunProc(func(p *Proc) {
		if err := c.Err(); err != nil {
			t.Fatalf("Err() before the deadline = %v", err)
		}
		p.Sleep(Time(6 * time.Second))
		if !errors.Is(c.Err(), ErrDeadlineExceeded) {
			t.Fatalf("Err() past the deadline = %v, want ErrDeadlineExceeded", c.Err())
		}
		c.Cancel(errors.New("too late"))
		if !errors.Is(c.Err(), ErrDeadlineExceeded) {
			t.Fatalf("late cancel replaced the deadline cause: %v", c.Err())
		}
	})
}

// A nil *Ctx is documented as valid everywhere: it never expires, Cancel
// is a no-op, and OnCancel never fires.
func TestCtxNilSafe(t *testing.T) {
	var c *Ctx
	if c.Err() != nil {
		t.Fatalf("nil ctx Err() = %v", c.Err())
	}
	c.Cancel(errors.New("ignored"))
	ran := false
	c.OnCancel(func() { ran = true })
	if ran {
		t.Fatal("waker ran on a nil ctx")
	}
}

// PushCtx scopes nest: the restore function reinstates the previous scope,
// so a worker running requests back-to-back never leaks one request's
// cancellation into the next.
func TestPushCtxRestoresPreviousScope(t *testing.T) {
	k := NewKernel()
	outer, inner := k.NewCtx(0), k.NewCtx(0)
	k.RunProc(func(p *Proc) {
		popOuter := p.PushCtx(outer)
		popInner := p.PushCtx(inner)
		inner.Cancel(nil)
		if !errors.Is(p.CtxErr(), ErrCanceled) {
			t.Fatalf("inner scope not visible: %v", p.CtxErr())
		}
		popInner()
		if err := p.CtxErr(); err != nil {
			t.Fatalf("outer scope tainted by inner cancel: %v", err)
		}
		popOuter()
		if p.Ctx() != nil {
			t.Fatal("base scope not restored")
		}
	})
}

// The park hook runs inside Park and Unpark, on the parking process, and may
// block in Unpark; a scope without one, and a nil scope, ignore both.
func TestCtxParkHook(t *testing.T) {
	k := NewKernel()
	c := k.NewCtx(0)
	var calls []bool
	var resumed Time
	c.SetParkHook(func(p *Proc, parked bool) {
		calls = append(calls, parked)
		if !parked {
			p.Sleep(time.Second)
		}
	})
	k.Go("req", func(p *Proc) {
		defer p.PushCtx(c)()
		p.Ctx().Park(p)
		p.Ctx().Unpark(p)
		resumed = p.Now()
		k.NewCtx(0).Park(p)
		(*Ctx)(nil).Unpark(p)
	})
	k.Run()
	if len(calls) != 2 || !calls[0] || calls[1] || resumed != time.Second {
		t.Fatalf("hook calls %v, resumed at %v", calls, resumed)
	}
}

// A scope's deadline is a timer: it cancels the scope at that very instant
// and runs its wakers, unless the scope was disarmed first, in which case
// nothing runs and the tombstone leaves the heap.
func TestCtxDeadlineTimer(t *testing.T) {
	k := NewKernel()
	live, disarmed := k.NewCtx(3*time.Second), k.NewCtx(time.Second)
	var at Time
	live.OnCancel(func() { at = k.Now() })
	disarmed.OnCancel(func() { t.Error("a disarmed deadline ran its scope's waker") })
	disarmed.Disarm()
	k.RunProc(func(p *Proc) { p.Sleep(5 * time.Second) })
	if at != 3*time.Second || !errors.Is(live.Err(), ErrDeadlineExceeded) {
		t.Fatalf("canceled at %v with %v, want 3s and ErrDeadlineExceeded", at, live.Err())
	}
	if err := disarmed.Err(); err != nil || len(k.events) != 0 {
		t.Fatalf("disarmed scope Err() = %v, %d events left", err, len(k.events))
	}
}

// A scope created past its deadline is born expired; one due now expires
// once the procs already runnable now have run.
func TestCtxPastDeadlineIsBornExpired(t *testing.T) {
	k := NewKernel()
	k.RunProc(func(p *Proc) {
		p.Sleep(5 * time.Second)
		past := k.NewCtx(4 * time.Second)
		if !errors.Is(past.Err(), ErrDeadlineExceeded) {
			t.Fatalf("Err() = %v, want ErrDeadlineExceeded", past.Err())
		}
		now := k.NewCtx(p.Now())
		if err := now.Err(); err != nil {
			t.Fatalf("a deadline due now expired before its timer ran: %v", err)
		}
		p.Sleep(0)
		if !errors.Is(now.Err(), ErrDeadlineExceeded) {
			t.Fatalf("Err() = %v after the timer due now, want ErrDeadlineExceeded", now.Err())
		}
	})
}
