package sim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedule.golden from this kernel")

// scheduleProgram runs one seeded random program over every primitive —
// Sleep (zero sleeps too), Resource, Cond, Chan, Go — on 50 procs beside a
// ticker and three consumer daemons, and returns the (time, proc, step) log in
// execution order. Every delay is a multiple of 50 µs, so wake-ups collide
// constantly and the log is a record of the kernel's FIFO tie-breaks.
func scheduleProgram(k *Kernel, seed uint64) []string {
	const (
		procs = 50
		steps = 16
		quant = 50 * time.Microsecond
	)
	var log []string
	rec := func(p *Proc, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s ", p.Now()/time.Microsecond, p.Name())+fmt.Sprintf(format, args...))
	}
	res := []*Resource{k.NewResource("r0"), k.NewResource("r1"), k.NewResource("r2")}
	tick := k.NewCond("tick")
	work := NewChan[string](k, "work", 4)

	k.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(4 * quant)
			tick.Broadcast()
		}
	})
	for c := 0; c < 3; c++ {
		rng := NewRNG(seed ^ uint64(1000+c))
		k.GoDaemon(fmt.Sprintf("consumer%d", c), func(p *Proc) {
			for {
				v := work.Recv(p)
				rec(p, "recv %v", v)
				p.Sleep(Time(rng.Int63n(6)) * quant)
			}
		})
	}
	for i := 0; i < procs; i++ {
		rng := NewRNG(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		k.Go(fmt.Sprintf("p%02d", i), func(p *Proc) {
			spawned, joined := 0, 0
			join := k.NewCond(p.Name() + ".join")
			for s := 0; s < steps; s++ {
				switch rng.Intn(6) {
				case 0:
					p.Sleep(Time(rng.Int63n(8)) * quant)
					rec(p, "slept")
				case 1:
					r := res[rng.Intn(len(res))]
					r.Acquire(p)
					rec(p, "acquired %s", r.name)
					p.Sleep(Time(rng.Int63n(4)) * quant)
					r.Release(p)
					rec(p, "released %s", r.name)
				case 2:
					tick.Wait(p)
					rec(p, "ticked")
				case 3:
					work.Send(p, fmt.Sprintf("%s#%d", p.Name(), s))
					rec(p, "sent")
				case 4:
					d := Time(rng.Int63n(8)) * quant
					spawned++
					k.Go(fmt.Sprintf("%s.c%d", p.Name(), s), func(cp *Proc) {
						cp.Sleep(d)
						rec(cp, "child ran")
						joined++
						join.Broadcast()
					})
					rec(p, "spawned")
				case 5:
					p.Sleep(0)
					rec(p, "yielded")
				}
			}
			for joined < spawned {
				join.Wait(p)
			}
			rec(p, "done")
		})
	}
	k.Run()
	k.Stop()
	return log
}

// TestScheduleMatchesGolden pins the dispatch order of the whole kernel:
// testdata/schedule.golden was recorded from the goroutine-and-channel
// kernel this one replaced (commit e771d1e), so any change to when a proc
// runs relative to another — a tie broken differently, a self-wake that
// overtakes a pending event, a recycled coroutine resumed out of turn —
// shows up as the first differing line.
func TestScheduleMatchesGolden(t *testing.T) {
	const path = "testdata/schedule.golden"
	k := NewKernel()
	got := scheduleProgram(k, 1993)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("log line %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("log has %d lines, golden %d", len(got), len(want))
	}
	// The program must take both paths of Sleep for the comparison to
	// mean anything.
	if pr := k.ProfileSnapshot(); pr.InPlaceEvents == 0 || pr.TotalSwitches == 0 {
		t.Fatalf("program served %d events in place and %d by a switch, want both", pr.InPlaceEvents, pr.TotalSwitches)
	}
}
