package sim

import (
	"testing"
	"time"
)

// profileWorkload runs a small deterministic mix of sleeps and wake-ups —
// four workers whose wake-ups collide, then main sleeping alone, which is
// served in place — and returns the final virtual time.
func profileWorkload(k *Kernel) Time {
	var end Time
	k.RunProc(func(p *Proc) {
		cond := k.NewCond("tick")
		done := 0
		for i := 0; i < 4; i++ {
			k.Go("worker", func(wp *Proc) {
				for j := 0; j < 50; j++ {
					wp.Sleep(Time(j+1) * time.Millisecond)
				}
				done++
				cond.Broadcast()
			})
		}
		for done < 4 {
			cond.Wait(p)
		}
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
		}
		end = p.Now()
	})
	return end
}

func TestProfileCountsAndRate(t *testing.T) {
	k := NewKernel()
	k.EnableProfile()
	profileWorkload(k)
	pr := k.ProfileSnapshot()
	if !pr.Enabled {
		t.Fatal("profile not enabled")
	}
	if pr.Events <= 0 || pr.TotalEvents < pr.Events {
		t.Fatalf("events: got %d (total %d), want > 0", pr.Events, pr.TotalEvents)
	}
	if pr.WallNs <= 0 || pr.EventsPerSec <= 0 {
		t.Fatalf("wall %dns events/sec %g, want both > 0", pr.WallNs, pr.EventsPerSec)
	}
	if pr.HeapHighWater < 4 {
		t.Fatalf("heap high water %d, want >= 4 (four concurrent sleepers)", pr.HeapHighWater)
	}
	if pr.Procs != 5 {
		t.Fatalf("procs %d, want 5 (main + 4 workers)", pr.Procs)
	}
	if pr.InPlaceEvents != 5 {
		t.Fatalf("in-place events %d, want main's 5 lone sleeps", pr.InPlaceEvents)
	}
	if pr.TotalEvents != pr.TotalSwitches+pr.InPlaceEvents {
		t.Fatalf("events %d != switches %d + in-place events %d", pr.TotalEvents, pr.TotalSwitches, pr.InPlaceEvents)
	}
	// Every proc has finished and left the kernel's list; the four
	// workers' counts are folded under their shared name.
	var sum int64
	for _, tp := range pr.TopProcs {
		sum += tp.Switches
	}
	if len(pr.TopProcs) != 2 || pr.TopProcs[0].Name != "worker" || sum != pr.TotalSwitches {
		t.Fatalf("top procs %+v, want worker then main summing to %d switches", pr.TopProcs, pr.TotalSwitches)
	}
	for i := 1; i < len(pr.TopProcs); i++ {
		if pr.TopProcs[i].Switches > pr.TopProcs[i-1].Switches {
			t.Fatalf("top procs not sorted: %+v", pr.TopProcs)
		}
	}
}

func TestUnprofiledKernelKeepsStructuralCounters(t *testing.T) {
	k := NewKernel()
	profileWorkload(k)
	pr := k.ProfileSnapshot()
	if pr.Enabled {
		t.Fatal("profile unexpectedly enabled")
	}
	if pr.TotalEvents <= 0 || pr.HeapHighWater <= 0 || pr.TotalSwitches <= 0 {
		t.Fatalf("structural counters missing: %+v", pr)
	}
	if pr.WallNs != 0 || pr.DispatchNs != 0 || pr.ProcNs != 0 {
		t.Fatalf("wall timers ran without EnableProfile: %+v", pr)
	}
}

// TestProfileDoesNotPerturbVirtualTime pins that profiling is pure
// observation: the profiled run ends at the identical virtual time and
// dispatches the identical number of events as the unprofiled one.
func TestProfileDoesNotPerturbVirtualTime(t *testing.T) {
	k1 := NewKernel()
	end1 := profileWorkload(k1)
	k2 := NewKernel()
	k2.EnableProfile()
	end2 := profileWorkload(k2)
	if end1 != end2 {
		t.Fatalf("virtual end time differs: unprofiled %v, profiled %v", end1, end2)
	}
	if e1, e2 := k1.ProfileSnapshot().TotalEvents, k2.ProfileSnapshot().TotalEvents; e1 != e2 {
		t.Fatalf("event count differs: unprofiled %d, profiled %d", e1, e2)
	}
}

// TestEnableProfileWindowsTheRate pins that the events/sec window starts
// at EnableProfile, not at kernel creation: setup events before the
// enable are excluded from Events.
func TestEnableProfileWindowsTheRate(t *testing.T) {
	k := NewKernel()
	profileWorkload(k) // unprofiled setup phase
	setup := k.ProfileSnapshot().TotalEvents
	k.EnableProfile()
	profileWorkload(k)
	pr := k.ProfileSnapshot()
	if pr.Events >= pr.TotalEvents {
		t.Fatalf("window not applied: events %d, total %d", pr.Events, pr.TotalEvents)
	}
	if want := pr.TotalEvents - setup; pr.Events != want {
		t.Fatalf("windowed events %d, want %d", pr.Events, want)
	}
}
