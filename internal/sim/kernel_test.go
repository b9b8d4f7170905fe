package sim

import (
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var at Time
	k.RunProc(func(p *Proc) {
		p.Sleep(5 * time.Second)
		at = p.Now()
	})
	if at != 5*time.Second {
		t.Fatalf("Now after Sleep(5s) = %v, want 5s", at)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("kernel Now = %v, want 5s", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("late", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		order = append(order, "late")
	})
	k.Go("early", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		order = append(order, "early")
	})
	k.Go("mid", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		order = append(order, "mid")
	})
	k.Run()
	got := strings.Join(order, ",")
	if got != "early,mid,late" {
		t.Fatalf("order = %s, want early,mid,late", got)
	}
}

func TestSameTimeEventsAreFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, i)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	got := strings.Join(order, ",")
	if got != "a1,b1,a2" {
		t.Fatalf("order = %s, want a1,b1,a2", got)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced on zero sleep: %v", k.Now())
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	k := NewKernel()
	k.RunProc(func(p *Proc) {
		p.Sleep(-time.Second)
	})
	if k.Now() != 0 {
		t.Fatalf("negative sleep moved time to %v", k.Now())
	}
}

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	k.RunProc(func(p *Proc) {
		p.Sleep(3500 * time.Millisecond)
	})
	if ticks != 3 {
		t.Fatalf("daemon ticked %d times in 3.5s, want 3", ticks)
	}
	k.Stop()
}

// TestDeadlockPanics: a run that can never finish panics with every stuck
// proc and what it waits on, by kind and name.
func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		for _, want := range []string{"deadlock", "holder: wait never", "queued: acquire arm"} {
			if !strings.Contains(r.(string), want) {
				t.Fatalf("panic = %v, want it to say %q", r, want)
			}
		}
	}()
	k := NewKernel()
	c, arm := k.NewCond("never"), k.NewResource("arm")
	k.Go("holder", func(p *Proc) {
		arm.Acquire(p)
		c.Wait(p) // nobody will ever signal
	})
	k.Go("queued", func(p *Proc) { arm.Acquire(p) })
	k.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate out of Run")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic = %q, want to contain 'boom'", r)
		}
	}()
	k := NewKernel()
	k.RunProc(func(p *Proc) {
		panic("boom")
	})
}

func TestSpawnDuringRun(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.RunProc(func(p *Proc) {
		k.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(time.Second)
	})
	if !childRan {
		t.Fatal("child spawned during run never ran")
	}
}

func TestStopUnwindsDaemons(t *testing.T) {
	k := NewKernel()
	cleaned := false
	c := k.NewCond("forever")
	k.GoDaemon("d", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	k.RunProc(func(p *Proc) { p.Sleep(time.Second) })
	k.Stop()
	if !cleaned {
		t.Fatal("daemon deferred cleanup did not run on Stop")
	}
}

func TestManyProcsScale(t *testing.T) {
	k := NewKernel()
	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		d := time.Duration(i) * time.Microsecond
		k.Go("w", func(p *Proc) {
			p.Sleep(d)
			done++
		})
	}
	k.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if k.Now() != time.Duration(n-1)*time.Microsecond {
		t.Fatalf("final time = %v", k.Now())
	}
}

func TestAdvanceTo(t *testing.T) {
	k := NewKernel()
	k.AdvanceTo(42 * time.Second)
	if k.Now() != 42*time.Second {
		t.Fatalf("Now = %v after AdvanceTo", k.Now())
	}
	var woke Time
	k.RunProc(func(p *Proc) {
		p.Sleep(time.Second)
		woke = p.Now()
	})
	if woke != 43*time.Second {
		t.Fatalf("proc woke at %v, want 43s", woke)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past should panic")
		}
	}()
	k.AdvanceTo(time.Second)
}

// TestRestartIsASpawn: rounds of four workers, each started by Go in one
// kernel and by Restart of the previous round's handles in another, beside
// a proc that wakes at the same instants, run in the same order at the same
// times, and the kernels count the same procs, events and switches. A proc
// that has not finished cannot be restarted.
func TestRestartIsASpawn(t *testing.T) {
	run := func(restart bool) ([]string, Profile) {
		k := NewKernel()
		var order []string
		var ps [4]*Proc
		k.GoDaemon("ticker", func(p *Proc) {
			for {
				order = append(order, "tick "+p.Now().String())
				p.Sleep(time.Millisecond)
			}
		})
		k.RunProc(func(p *Proc) {
			join := k.NewCond("join")
			for round := range 5 {
				done := 0
				for i := range ps {
					body := func(cp *Proc) {
						cp.Sleep(time.Duration(i+round) * time.Millisecond / 2)
						order = append(order, cp.Name()+" "+cp.Now().String())
						done++
						join.Broadcast()
					}
					if restart && ps[i] != nil {
						ps[i].fn = body // the round's sleep; Restart runs a proc's own body
						k.Restart(ps[i])
					} else {
						ps[i] = k.Go(string(rune('a'+i)), body)
					}
				}
				for done < len(ps) {
					join.Wait(p)
				}
			}
			defer func() {
				if recover() == nil {
					t.Error("Restart of a live proc did not panic")
				}
			}()
			k.Restart(p)
		})
		k.Stop()
		prof := k.ProfileSnapshot()
		prof.TopProcs = nil
		return order, prof
	}
	spawned, sp := run(false)
	restarted, rp := run(true)
	if strings.Join(spawned, "\n") != strings.Join(restarted, "\n") {
		t.Errorf("restarted procs ran as\n%v\nspawned ones as\n%v", restarted, spawned)
	}
	if sp.Procs != rp.Procs || sp.TotalSwitches != rp.TotalSwitches || sp.Events != rp.Events || sp.HeapHighWater != rp.HeapHighWater {
		t.Errorf("restarted: %+v\nspawned: %+v", rp, sp)
	}
}

// TestTimersAndSleepsFireInArmOrder: a timer is an event like a Sleep's
// wake-up, so those due at one instant run in the order they were armed.
func TestTimersAndSleepsFireInArmOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	k.At(time.Second, note("timer 1"))
	k.Go("sleeper", func(p *Proc) {
		k.At(time.Second, note("timer 3"))
		p.Sleep(time.Second)
		order = append(order, "sleeper")
		p.Sleep(0) // stay alive until the last timer due now has run
	})
	k.Go("late", func(p *Proc) { k.At(time.Second, note("timer 4")) })
	k.At(time.Second, note("timer 2"))
	k.Run()
	got := strings.Join(order, ", ")
	if want := "timer 1, timer 2, timer 3, sleeper, timer 4"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestTimerIsNotAProc: a timer runs on no proc and is not an event or a
// switch, it wakes procs it calls back, and a pending one keeps no Run alive.
func TestTimerIsNotAProc(t *testing.T) {
	k := NewKernel()
	c := k.NewCond("c")
	woke, late := Time(-1), false
	k.RunProc(func(p *Proc) {
		k.At(2*time.Second, c.Broadcast)
		k.At(time.Hour, func() { late = true })
		c.Wait(p)
		woke = p.Now()
	})
	if woke != 2*time.Second || late || k.Now() != 2*time.Second {
		t.Fatalf("woke at %v, late timer ran %v, run ended at %v", woke, late, k.Now())
	}
	pr := k.ProfileSnapshot()
	if pr.Procs != 1 || pr.TotalEvents != 2 || pr.TotalSwitches != 2 {
		t.Fatalf("procs %d, events %d, switches %d; want main's 1, 2 and 2", pr.Procs, pr.TotalEvents, pr.TotalSwitches)
	}
	if pr.TotalEvents != pr.TotalSwitches+pr.InPlaceEvents {
		t.Fatalf("events %d != switches %d + in-place events %d", pr.TotalEvents, pr.TotalSwitches, pr.InPlaceEvents)
	}
}
