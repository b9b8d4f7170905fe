// Package fault provides deterministic, seeded fault injection for the
// simulated storage devices. A Plan compiles per-device fault schedules
// into the existing Fault hooks on dev.Disk and jukebox.Jukebox, so no
// device code changes to run a chaos experiment — and the same seed
// always produces the same injected-fault sequence, because the sim
// kernel dispatches operations in a deterministic order.
//
// The fault model covers the failure classes a hierarchical storage
// manager meets in the field (the paper's §6.7 machinery assumed none of
// them):
//
//   - transient media errors: an operation fails once or in a short
//     burst, then succeeds when retried (dust, marginal signal);
//   - permanent media errors: a (volume, segment) region goes bad and
//     every later operation on it fails (media defect, tape crease);
//   - volume-load failures: the robot fails to seat a volume in a drive
//     (retryable);
//   - drive outages: a drive is stuck or offline for a window of virtual
//     time, forcing failover to the remaining drives.
//
// Injected errors wrap dev.ErrTransientMedia or dev.ErrPermanentMedia so
// the recovery layer in internal/tertiary can classify them.
package fault

import (
	"fmt"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/sim"
)

// Config sets the fault rates of a Plan. All rates are per-operation
// probabilities in [0, 1).
type Config struct {
	// Seed feeds every injector RNG; the same seed and the same
	// simulated operation sequence reproduce the same faults.
	Seed uint64

	// TransientReadRate / TransientWriteRate inject retryable media
	// errors on reads and writes.
	TransientReadRate  float64
	TransientWriteRate float64

	// MaxBurst bounds how many consecutive attempts one transient fault
	// fails (an error burst). Each injected transient fault fails between
	// 1 and MaxBurst attempts of the same operation before clearing.
	// Zero means 1 (single failure). Keep MaxBurst below the recovery
	// layer's retry budget or transient faults become unrecoverable.
	MaxBurst int

	// PermanentReadRate / PermanentWriteRate mark the targeted
	// (volume, segment) permanently bad. A permanent write fault is
	// recovered by retiring the segment and restaging its contents; a
	// permanent read fault loses the data (graceful degradation is the
	// best possible outcome).
	PermanentReadRate  float64
	PermanentWriteRate float64

	// LoadFailRate injects transient volume-load failures (jukeboxes
	// only; the "load" hook op).
	LoadFailRate float64
}

// Counts tallies the faults one injector produced, by class.
type Counts struct {
	Transient int64 // transient failures injected (burst repeats included)
	Permanent int64 // operations refused on permanently bad segments
	LoadFails int64 // volume-load failures injected
	BadSegs   int64 // distinct (volume, segment) regions gone permanently bad
}

// target identifies a fault-addressable region: (vol, seg) on a jukebox,
// (-1, block-group) on a disk.
type target struct {
	vol int
	seg int64
}

type burstKey struct {
	op string
	t  target
}

// injector is the per-device fault state machine.
type injector struct {
	name   string
	cfg    Config
	rng    *sim.RNG
	burst  map[burstKey]int // remaining failures of an active burst
	perm   map[target]bool  // permanently bad regions
	counts Counts
}

func newInjector(name string, cfg Config, salt uint64) *injector {
	return &injector{
		name:  name,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed ^ salt),
		burst: make(map[burstKey]int),
		perm:  make(map[target]bool),
	}
}

func (in *injector) maxBurst() int {
	if in.cfg.MaxBurst < 1 {
		return 1
	}
	return in.cfg.MaxBurst
}

// decide is the per-operation fault oracle.
func (in *injector) decide(op string, t target) error {
	if in.perm[t] {
		in.counts.Permanent++
		return fmt.Errorf("fault: %s: %s vol %d seg %d: %w", in.name, op, t.vol, t.seg, dev.ErrPermanentMedia)
	}
	bk := burstKey{op, t}
	if n := in.burst[bk]; n > 0 {
		in.burst[bk] = n - 1
		in.counts.Transient++
		return fmt.Errorf("fault: %s: %s vol %d seg %d (burst): %w", in.name, op, t.vol, t.seg, dev.ErrTransientMedia)
	}
	var transRate, permRate float64
	switch op {
	case "read":
		transRate, permRate = in.cfg.TransientReadRate, in.cfg.PermanentReadRate
	case "write":
		transRate, permRate = in.cfg.TransientWriteRate, in.cfg.PermanentWriteRate
	case "load":
		if in.cfg.LoadFailRate > 0 && in.rng.Float64() < in.cfg.LoadFailRate {
			in.counts.LoadFails++
			return fmt.Errorf("fault: %s: load of vol %d failed: %w", in.name, t.vol, dev.ErrTransientMedia)
		}
		return nil
	default:
		return nil
	}
	if permRate > 0 && in.rng.Float64() < permRate {
		in.perm[t] = true
		in.counts.Permanent++
		in.counts.BadSegs++
		return fmt.Errorf("fault: %s: %s vol %d seg %d: %w", in.name, op, t.vol, t.seg, dev.ErrPermanentMedia)
	}
	if transRate > 0 && in.rng.Float64() < transRate {
		// This attempt fails; 0..MaxBurst-1 further attempts fail too.
		in.burst[bk] = in.rng.Intn(in.maxBurst())
		in.counts.Transient++
		return fmt.Errorf("fault: %s: %s vol %d seg %d: %w", in.name, op, t.vol, t.seg, dev.ErrTransientMedia)
	}
	return nil
}

// Outage keeps a jukebox drive offline for a window of virtual time.
type Outage struct {
	Drive      int
	Start, End sim.Time
}

type scheduledOutage struct {
	j *jukebox.Jukebox
	o Outage
}

// LibraryOutage takes a whole changer out of service for a window of
// virtual time — power loss, robotics jam, or a severed link to a remote
// library. End at or before Start means the outage is permanent: the
// library goes down and never comes back (a repair pass's job is to
// re-replicate off the survivors).
type LibraryOutage struct {
	Start, End sim.Time
}

type scheduledLibOutage struct {
	l *jukebox.Library
	o LibraryOutage
}

// Plan is a compiled fault schedule over a set of devices.
type Plan struct {
	cfg        Config
	salt       uint64
	injectors  map[string]*injector
	outages    []scheduledOutage
	libOutages []scheduledLibOutage
	started    bool
}

// NewPlan returns an empty plan with the given configuration.
func NewPlan(cfg Config) *Plan {
	return &Plan{cfg: cfg, injectors: make(map[string]*injector)}
}

func (pl *Plan) injector(name string) *injector {
	in, ok := pl.injectors[name]
	if !ok {
		pl.salt++
		in = newInjector(name, pl.cfg, pl.salt*0x9e3779b97f4a7c15)
		pl.injectors[name] = in
	}
	return in
}

// InstallJukebox compiles the plan into j's Fault hook under the given
// device name (used in Stats and reports).
func (pl *Plan) InstallJukebox(name string, j *jukebox.Jukebox) {
	in := pl.injector(name)
	j.Fault = func(op string, vol, seg int) error {
		return in.decide(op, target{vol: vol, seg: int64(seg)})
	}
}

// AddOutage schedules a drive outage on j. Call before Start.
func (pl *Plan) AddOutage(j *jukebox.Jukebox, o Outage) {
	if pl.started {
		panic("fault: AddOutage after Start")
	}
	pl.outages = append(pl.outages, scheduledOutage{j, o})
}

// AddLibraryOutage schedules a whole-changer outage on l. Call before
// Start. An End at or before Start makes the outage permanent.
func (pl *Plan) AddLibraryOutage(l *jukebox.Library, o LibraryOutage) {
	if pl.started {
		panic("fault: AddLibraryOutage after Start")
	}
	pl.libOutages = append(pl.libOutages, scheduledLibOutage{l, o})
}

// Start arms a kernel timer per outage edge that flips drive or library
// health at its virtual time. Edges at one instant apply in the order they
// were added, an outage's offline edge before its online one. A plan with
// no outages needs no Start.
func (pl *Plan) Start(k *sim.Kernel) {
	pl.started = true
	for _, so := range pl.outages {
		k.At(so.o.Start, func() { so.j.SetDriveOffline(so.o.Drive, true) })
		k.At(so.o.End, func() { so.j.SetDriveOffline(so.o.Drive, false) })
	}
	for _, lo := range pl.libOutages {
		k.At(lo.o.Start, func() { lo.l.SetDown(true) })
		if lo.o.End > lo.o.Start {
			k.At(lo.o.End, func() { lo.l.SetDown(false) })
		}
	}
}

// DeviceCounts reports the injected-fault tally for one installed device.
func (pl *Plan) DeviceCounts(name string) Counts {
	if in, ok := pl.injectors[name]; ok {
		return in.counts
	}
	return Counts{}
}
