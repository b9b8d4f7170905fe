package svc

import (
	"errors"
	"fmt"

	"repro/internal/jukebox"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"time"
)

// Per-library circuit breakers. Each tertiary library (failure domain) gets
// a three-state breaker:
//
//	closed    — traffic flows; consecutive infrastructure failures are
//	            counted, and at breakerThreshold the breaker trips.
//	open      — the fetch router ranks the library's copies just above
//	            down libraries (routeTripped), so reads are served from
//	            replicas on healthy libraries instead; after the cooldown
//	            the first Allow converts to a half-open probe.
//	half-open — exactly one probe request is let through per probe window;
//	            its outcome closes the breaker (restore) or re-opens it
//	            with a doubled cooldown.
//
// Only infrastructure failures — a library out of service, no healthy
// drive — count toward tripping. Media-level errors (end-of-medium,
// write-once violations, dust) mean the changer answered, so they reset
// the consecutive-failure count like a success.

const (
	// breakerThreshold is the consecutive infrastructure-failure count
	// that trips a closed breaker.
	breakerThreshold = 3
	// breakerCooldown is how long a freshly tripped breaker stays open
	// before the first half-open probe. Each failed probe doubles it, up to
	// breakerMaxCooldown.
	breakerCooldown    = 2 * sim.Time(time.Second)
	breakerMaxCooldown = 64 * sim.Time(time.Second)
)

// Breaker states, exported through the per-library gauges
// (svc.breaker.lib<N>).
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

type libBreaker struct {
	state      int
	consec     int      // consecutive infra failures while closed
	openedAt   sim.Time // when the breaker last tripped
	cooldown   sim.Time // current open duration (doubles per failed probe)
	probing    bool     // a half-open probe is outstanding
	probeStart sim.Time // when the outstanding probe was granted
}

// BreakerSet implements tertiary.BreakerGate for every configured library.
// It is consulted by the fetch router (Allow) and fed per-library attempt
// outcomes by the I/O process (OnResult); every trip, probe, and restore
// is recorded in the decision audit so `hldump -why` can explain why a
// library stopped (and resumed) taking traffic.
type BreakerSet struct {
	k     *sim.Kernel
	o     *obs.Obs
	audit *attr.Audit

	libs   []libBreaker
	gauges []*obs.Gauge

	trips    *obs.Counter
	probes   *obs.Counter
	restores *obs.Counter
}

// newBreakerSet creates one breaker per library, all closed.
func newBreakerSet(k *sim.Kernel, nlibs int, o *obs.Obs, audit *attr.Audit) *BreakerSet {
	b := &BreakerSet{
		k: k, o: o, audit: audit,
		libs:     make([]libBreaker, nlibs),
		gauges:   make([]*obs.Gauge, nlibs),
		trips:    o.Counter("svc.breaker.trips"),
		probes:   o.Counter("svc.breaker.probes"),
		restores: o.Counter("svc.breaker.restores"),
	}
	for i := range b.gauges {
		b.gauges[i] = o.Gauge(fmt.Sprintf("svc.breaker.lib%d", i))
	}
	return b
}

// Allow reports whether library lib should be offered traffic. A closed
// breaker always says yes; an open one says no until its cooldown elapses,
// at which point the call itself converts to a half-open probe grant. The
// probe grant is side-effectful by design: the router asking is the
// admission decision.
func (b *BreakerSet) Allow(lib int) bool {
	if b == nil || lib < 0 || lib >= len(b.libs) {
		return true
	}
	s := &b.libs[lib]
	now := b.k.Now()
	switch s.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now-s.openedAt < s.cooldown {
			return false
		}
		b.setState(lib, breakerHalfOpen)
		return b.grantProbe(lib, now)
	default: // half-open
		if s.probing && now-s.probeStart < s.cooldown {
			return false // one probe per window
		}
		// Either no probe is outstanding, or the last granted probe was
		// never attempted (the router found a healthy copy first) and its
		// window lapsed: grant a fresh one so the breaker cannot wedge.
		return b.grantProbe(lib, now)
	}
}

func (b *BreakerSet) grantProbe(lib int, now sim.Time) bool {
	s := &b.libs[lib]
	s.probing = true
	s.probeStart = now
	b.probes.Add(1)
	b.audit.Record(attr.Decision{
		T: now, Actor: "svc.breaker", Subject: fmt.Sprintf("lib:%d", lib),
		Seg: -1, Verdict: attr.VerdictProbed, Reason: "half-open probe window",
		Inputs: []attr.Input{
			attr.In("lib", float64(lib)),
			attr.In("cooldown_ms", float64(s.cooldown.Milliseconds())),
		},
	})
	return true
}

// infraFailure classifies an attempt outcome: only failures of the library
// infrastructure itself (changer out of service, no healthy drive) count
// toward tripping. Media errors mean the library answered.
func infraFailure(err error) bool {
	return err != nil &&
		(errors.Is(err, jukebox.ErrLibraryOffline) || errors.Is(err, jukebox.ErrDriveOffline))
}

// OnResult feeds back the outcome of one attempt against library lib. The
// I/O process calls it after every per-library segment read or write.
func (b *BreakerSet) OnResult(lib int, err error) {
	if b == nil || lib < 0 || lib >= len(b.libs) {
		return
	}
	s := &b.libs[lib]
	fail := infraFailure(err)
	switch s.state {
	case breakerClosed:
		if !fail {
			s.consec = 0
			return
		}
		s.consec++
		if s.consec >= breakerThreshold {
			b.trip(lib, err, breakerCooldown)
		}
	case breakerHalfOpen:
		if fail {
			// Failed probe: back to open with a doubled cooldown.
			b.trip(lib, err, min(2*s.cooldown, breakerMaxCooldown))
			return
		}
		b.restore(lib)
	case breakerOpen:
		// A straggling attempt (granted before the trip) finished; its
		// outcome is stale, so it neither re-trips nor restores.
	}
}

func (b *BreakerSet) trip(lib int, cause error, cooldown sim.Time) {
	s := &b.libs[lib]
	s.cooldown = cooldown
	s.openedAt = b.k.Now()
	s.consec = 0
	s.probing = false
	b.setState(lib, breakerOpen)
	b.trips.Add(1)
	reason := "consecutive infrastructure failures"
	if cause != nil {
		reason = cause.Error()
	}
	b.audit.Record(attr.Decision{
		T: b.k.Now(), Actor: "svc.breaker", Subject: fmt.Sprintf("lib:%d", lib),
		Seg: -1, Verdict: attr.VerdictTripped, Reason: reason,
		Inputs: []attr.Input{
			attr.In("lib", float64(lib)),
			attr.In("threshold", breakerThreshold),
			attr.In("cooldown_ms", float64(cooldown.Milliseconds())),
		},
	})
}

func (b *BreakerSet) restore(lib int) {
	s := &b.libs[lib]
	s.consec = 0
	s.probing = false
	s.cooldown = breakerCooldown
	b.setState(lib, breakerClosed)
	b.restores.Add(1)
	b.audit.Record(attr.Decision{
		T: b.k.Now(), Actor: "svc.breaker", Subject: fmt.Sprintf("lib:%d", lib),
		Seg: -1, Verdict: attr.VerdictRestored, Reason: "probe succeeded",
		Inputs: []attr.Input{attr.In("lib", float64(lib))},
	})
}

func (b *BreakerSet) setState(lib, state int) {
	b.libs[lib].state = state
	b.gauges[lib].Set(int64(state))
}
