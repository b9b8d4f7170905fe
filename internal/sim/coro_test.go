package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSelfWakeNeverOvertakes pins the in-place rule's strict comparison: a
// proc sleeping to time t while another wake-up is already pending at
// exactly t must run second, as it would have with its own event pushed
// behind the pending one.
func TestSelfWakeNeverOvertakes(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("first", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // pending at t=10ms from the start
		order = append(order, "first")
	})
	k.Go("second", func(p *Proc) {
		p.Sleep(4 * time.Millisecond) // nothing pending before 10ms
		p.Sleep(6 * time.Millisecond) // lands exactly on first's wake-up
		order = append(order, "second")
		p.Sleep(time.Millisecond) // alone now: served in place
		order = append(order, "second again")
	})
	k.Run()
	if got := strings.Join(order, ","); got != "first,second,second again" {
		t.Fatalf("order = %s, want first,second,second again", got)
	}
	if k.Now() != 11*time.Millisecond {
		t.Fatalf("final time %v, want 11ms", k.Now())
	}
}

// TestYieldStillRunsEveryRunnableProcFirst: Sleep(0) may only return in
// place when nothing else is runnable at the current time.
func TestYieldStillRunsEveryRunnableProcFirst(t *testing.T) {
	k := NewKernel()
	var order []string
	k.RunProc(func(p *Proc) {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("w%d", i)
			k.Go(name, func(wp *Proc) {
				order = append(order, name)
				wp.Sleep(0)
				order = append(order, name+"'")
			})
		}
		p.Sleep(0)
		order = append(order, "main")
		p.Sleep(0) // w0' w1' w2' are runnable now and go first
		order = append(order, "main'")
		p.Sleep(0) // nothing else runnable: returns in place
		order = append(order, "main''")
	})
	want := "w0,w1,w2,main,w0',w1',w2',main',main''"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestLoneSleeperNeverSwitches: a proc that is alone in the kernel is
// switched to once, however often it sleeps.
func TestLoneSleeperNeverSwitches(t *testing.T) {
	k := NewKernel()
	k.RunProc(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	pr := k.ProfileSnapshot()
	if pr.TotalSwitches != 1 || pr.InPlaceEvents != 1000 || pr.TotalEvents != 1001 {
		t.Fatalf("switches %d, in place %d, events %d; want 1, 1000, 1001",
			pr.TotalSwitches, pr.InPlaceEvents, pr.TotalEvents)
	}
	if pr.HeapHighWater != 1 {
		t.Fatalf("heap high water %d, want 1 (the slot each self-wake would have taken)", pr.HeapHighWater)
	}
	if k.Now() != time.Second {
		t.Fatalf("final time %v, want 1s", k.Now())
	}
}

// fanOut4 spawns four one-sleep procs and joins them, the shape of one
// striped request.
func fanOut4(k *Kernel, p *Proc) {
	done := 0
	join := k.NewCond("join")
	for i := 0; i < 4; i++ {
		k.Go("part", func(cp *Proc) {
			cp.Sleep(time.Millisecond)
			done++
			join.Broadcast()
		})
	}
	for done < 4 {
		join.Wait(p)
	}
}

// settledGoroutines reports runtime.NumGoroutine once goroutines that are
// on their way out (earlier tests' helpers) have had a chance to exit.
func settledGoroutines(atMost int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > atMost; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestFanOutsReuseCoroutinesAndStopLeaksNone runs 10,000 sequential 4-way
// fan-outs: the 40,000 short-lived procs must share a handful of
// coroutines while running, and after Stop — with a daemon still blocked
// and one proc spawned but never dispatched — no goroutine may remain.
func TestFanOutsReuseCoroutinesAndStopLeaksNone(t *testing.T) {
	start := settledGoroutines(0)
	k := NewKernel()
	never := k.NewCond("never")
	k.GoDaemon("blocked", func(p *Proc) { never.Wait(p) })
	var during int
	k.RunProc(func(p *Proc) {
		for i := 0; i < 10000; i++ {
			fanOut4(k, p)
		}
		during = runtime.NumGoroutine()
		k.GoDaemon("never dispatched", func(p *Proc) { t.Error("ran a proc spawned as Run returned") })
	})
	// main, the blocked daemon and four parts: six coroutines at most.
	if during > start+6 {
		t.Errorf("%d goroutines after 10,000 fan-outs (started with %d): coroutines are not reused", during, start)
	}
	if got := len(k.idle); got != 5 {
		t.Errorf("%d idle coroutines after the run, want 5 (the four the parts shared and main's)", got)
	}
	if pr := k.ProfileSnapshot(); pr.Procs != 40003 {
		t.Errorf("Procs = %d, want 40003", pr.Procs)
	}
	if len(k.procs) != 2 {
		t.Errorf("%d procs still listed, want 2 (the two daemons)", len(k.procs))
	}
	k.Stop()
	if end := settledGoroutines(start); end > start {
		t.Errorf("%d goroutines after Stop, started with %d", end, start)
	}
	if len(k.procs) != 0 || len(k.idle) != 0 {
		t.Errorf("after Stop: %d procs listed, %d idle coroutines; want none", len(k.procs), len(k.idle))
	}
}

// TestPanicOnRecycledCoroutine: a proc that panics while running on a
// coroutine inherited from a finished proc is reported by Run under its
// own name, and that coroutine is not handed to anyone else.
func TestPanicOnRecycledCoroutine(t *testing.T) {
	k := NewKernel()
	var recycled, ranOn *coro
	k.Go("main", func(p *Proc) {
		k.Go("short", func(*Proc) {})
		p.Sleep(0) // short runs to its end and leaves its coroutine idle
		if len(k.idle) != 1 {
			t.Errorf("%d idle coroutines after short finished, want 1", len(k.idle))
			return
		}
		recycled = k.idle[0]
		k.Go("bad", func(bp *Proc) {
			ranOn = bp.co
			panic("boom")
		})
		p.Sleep(time.Second)
	})
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		k.Run()
		return ""
	}()
	if !strings.Contains(msg, `proc "bad" panicked: boom`) {
		t.Fatalf("Run panicked with %q, want it to name proc bad and its panic value", msg)
	}
	if !strings.Contains(msg, "coro_test.go") {
		t.Fatalf("panic report carries no stack of the proc:\n%s", msg)
	}
	if ranOn == nil || ranOn != recycled {
		t.Fatalf("bad ran on coroutine %p, want the recycled one %p", ranOn, recycled)
	}
	if len(k.idle) != 0 {
		t.Fatalf("the coroutine a proc panicked on went back on the idle list")
	}
	k.Stop()
}

// TestStopUnwindsEveryKindOfProc: Stop with a sleeping proc, a blocked
// proc, a proc that was never dispatched and idle coroutines all present.
// Deferred calls of the started procs run, in spawn order; the body of the
// unstarted one never does.
func TestStopUnwindsEveryKindOfProc(t *testing.T) {
	start := settledGoroutines(0)
	k := NewKernel()
	var unwound []string
	never := k.NewCond("never")
	k.GoDaemon("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		p.Sleep(time.Hour)
	})
	k.GoDaemon("blocked", func(p *Proc) {
		defer func() { unwound = append(unwound, "blocked") }()
		never.Wait(p)
	})
	k.RunProc(func(p *Proc) {
		fanOut4(k, p) // leaves idle coroutines behind
		k.GoDaemon("unstarted", func(p *Proc) {
			unwound = append(unwound, "unstarted")
		})
	})
	if len(k.idle) == 0 {
		t.Fatal("no idle coroutine present before Stop")
	}
	k.Stop()
	if got := strings.Join(unwound, ","); got != "sleeper,blocked" {
		t.Fatalf("unwound %q, want sleeper,blocked", got)
	}
	if end := settledGoroutines(start); end > start {
		t.Fatalf("%d goroutines after Stop, started with %d", end, start)
	}
}

// TestSleepAfterStopUnwinds: a deferred call that sleeps while Stop is
// unwinding its proc must not advance the clock in place.
func TestSleepAfterStopUnwinds(t *testing.T) {
	k := NewKernel()
	reached := false
	k.GoDaemon("d", func(p *Proc) {
		defer func() {
			p.Sleep(time.Second)
			reached = true
		}()
		p.Sleep(time.Hour)
	})
	k.RunProc(func(p *Proc) { p.Sleep(time.Millisecond) })
	k.Stop()
	if reached || k.Now() != time.Millisecond {
		t.Fatalf("Sleep during Stop returned (reached=%v) or moved the clock to %v", reached, k.Now())
	}
}

// TestGoexitInProcEndsRun: t.Fatal inside a proc is runtime.Goexit on the
// proc's coroutine; it must end the goroutine that called Run, as it would
// end a test, instead of hanging the kernel.
func TestGoexitInProcEndsRun(t *testing.T) {
	k := NewKernel()
	ended := make(chan bool)
	go func() {
		returned := false
		defer func() { ended <- returned }()
		k.RunProc(func(p *Proc) {
			p.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		returned = true
	}()
	if <-ended {
		t.Fatal("Run returned normally although its proc called Goexit")
	}
}
