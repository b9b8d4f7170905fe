package sim

import "sort"

// Kernel self-profiling: how fast does the simulator itself run on the
// wall clock? The virtual-time model is exact by construction; what the
// profiler measures is the cost of computing it — events dispatched per
// wall-clock second, scheduler bookkeeping overhead per event, how deep
// the pending-event heap gets, and which procs the dispatcher touches
// most. These numbers are the measurement harness for any kernel
// optimization work: a change that claims to speed up the dispatch path
// must move EventsPerSec, and one that claims to shrink scheduling state
// must move HeapHighWater.
//
// Profiling never feeds back into the simulation: no virtual time is
// consumed, no RNG is drawn, and the counters are invisible to every
// deterministic export — a profiled run produces the identical
// virtual-time trace as an unprofiled one (pinned by
// TestProfileDoesNotPerturbVirtualTime).

// ProcProfile is the dispatch count of the processes sharing one name.
type ProcProfile struct {
	Name     string
	Switches int64
}

// Profile is a snapshot of the kernel's self-measurements.
type Profile struct {
	// Enabled reports whether wall-clock timing was on. The structural
	// counters (TotalEvents, HeapHighWater, switches) are maintained
	// unconditionally; the Ns fields are zero unless EnableProfile ran
	// before the measured Run calls.
	Enabled bool

	// Events counts wake-ups delivered to a proc since EnableProfile;
	// TotalEvents counts them over the kernel's whole life. Each is either
	// a switch to the proc's coroutine (TotalSwitches) or a self-wake that
	// Sleep served in place, on the proc that was already running
	// (InPlaceEvents): TotalEvents == TotalSwitches + InPlaceEvents.
	Events        int64
	TotalEvents   int64
	InPlaceEvents int64
	// SkippedEvents counts popped events whose proc had already been
	// unwound (Stop with wake-ups still pending).
	SkippedEvents int64

	// WallNs is wall-clock time spent inside profiled Run loops;
	// DispatchNs is the slice of it in scheduler bookkeeping (heap pop,
	// clock advance) and ProcNs the slice handed to procs (including the
	// coroutine switch there and back, binding a coroutine at a proc's
	// first dispatch, and every in-place event). EventsPerSec and
	// AvgDispatchNs are derived.
	WallNs        int64
	DispatchNs    int64
	ProcNs        int64
	EventsPerSec  float64
	AvgDispatchNs float64

	// HeapHighWater is the deepest the pending-event heap has ever been
	// (an in-place self-wake counts the slot its event would have taken);
	// Procs counts processes ever spawned; TotalSwitches counts the times
	// Run switched to a proc; TopProcs lists the most-dispatched proc
	// names, finished procs included.
	HeapHighWater int
	Procs         int
	TotalSwitches int64
	TopProcs      []ProcProfile
}

// topProcsReported caps how many proc names ProfileSnapshot lists.
const topProcsReported = 8

// EnableProfile turns on wall-clock timing of the dispatch loop. Call it
// before the Run (or RunProc) calls to be measured; enabling mid-run
// takes effect at the next Run. The events/sec window starts here, so a
// rig can be built unprofiled and only the workload measured.
func (k *Kernel) EnableProfile() {
	k.profEnabled = true
	k.profEventsMark = k.profEvents
}

// ProfileSnapshot reports the kernel's self-measurements so far. Safe to
// call between Run calls, or from inside a running proc (the dispatcher
// is parked while a proc runs, so the counters are quiescent).
func (k *Kernel) ProfileSnapshot() Profile {
	pr := Profile{
		Enabled:       k.profEnabled,
		Events:        k.profEvents - k.profEventsMark,
		TotalEvents:   k.profEvents,
		SkippedEvents: k.profSkipped,
		WallNs:        k.profWallNs,
		DispatchNs:    k.profDispatchNs,
		ProcNs:        k.profProcNs,
		HeapHighWater: k.heapHighWater,
		Procs:         k.spawned,
		InPlaceEvents: k.profInPlace,
		TotalSwitches: k.profSwitches,
	}
	if pr.WallNs > 0 {
		pr.EventsPerSec = float64(pr.Events) / (float64(pr.WallNs) / 1e9)
	}
	if pr.Events > 0 {
		pr.AvgDispatchNs = float64(pr.DispatchNs) / float64(pr.Events)
	}
	byName := make(map[string]int64, len(k.doneSwitches)+len(k.procs))
	for name, n := range k.doneSwitches {
		byName[name] = n
	}
	for _, p := range k.procs {
		byName[p.name] += p.switches
	}
	top := make([]ProcProfile, 0, len(byName))
	for name, n := range byName {
		if n > 0 {
			top = append(top, ProcProfile{Name: name, Switches: n})
		}
	}
	sort.Slice(top, func(a, b int) bool {
		if top[a].Switches != top[b].Switches {
			return top[a].Switches > top[b].Switches
		}
		return top[a].Name < top[b].Name
	})
	if len(top) > topProcsReported {
		top = top[:topProcsReported]
	}
	pr.TopProcs = top
	return pr
}
