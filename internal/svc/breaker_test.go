package svc

import (
	"testing"
	"time"

	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// TestBreakerStateMachine unit-tests the breaker transitions against a
// synthetic outcome stream: media errors do not trip, consecutive infra
// failures do, failed probes double the cooldown, and a successful probe
// restores and resets it.
func TestBreakerStateMachine(t *testing.T) {
	k := sim.NewKernel()
	o := obs.New(k)
	audit := attr.NewAudit(0)
	b := newBreakerSet(k, 2, o, audit) // threshold 3, cooldown 2 s, doubling
	infra := jukebox.ErrDriveOffline
	k.RunProc(func(p *sim.Proc) {
		if !b.Allow(0) || !b.Allow(1) {
			t.Fatal("fresh breakers refuse traffic")
		}
		// Media errors reset the consecutive count: infra, infra, media,
		// then three infra is what trips a threshold-3 breaker.
		b.OnResult(0, infra)
		b.OnResult(0, infra)
		b.OnResult(0, dev.ErrPermanentMedia)
		b.OnResult(0, infra)
		b.OnResult(0, infra)
		if b.libs[0].state != breakerClosed {
			t.Fatal("tripped below threshold (media error did not reset)")
		}
		b.OnResult(0, infra)
		if b.libs[0].state != breakerOpen {
			t.Fatal("did not trip at threshold")
		}
		if b.Allow(0) {
			t.Fatal("open breaker allowed traffic inside cooldown")
		}
		if !b.Allow(1) {
			t.Fatal("library 1's breaker affected by library 0's trip")
		}

		// First probe window: Allow converts to a single half-open grant.
		p.Sleep(sim.Time(2100 * time.Millisecond))
		if !b.Allow(0) {
			t.Fatal("no probe granted after cooldown")
		}
		if b.libs[0].state != breakerHalfOpen {
			t.Fatal("probe grant did not half-open the breaker")
		}
		if b.Allow(0) {
			t.Fatal("second probe granted in the same window")
		}
		// Failed probe: back to open with a doubled cooldown.
		b.OnResult(0, infra)
		if b.libs[0].state != breakerOpen {
			t.Fatal("failed probe did not re-open")
		}
		p.Sleep(sim.Time(2100 * time.Millisecond))
		if b.Allow(0) {
			t.Fatal("re-opened breaker ignored its doubled cooldown")
		}
		p.Sleep(sim.Time(2100 * time.Millisecond))
		if !b.Allow(0) {
			t.Fatal("no probe after doubled cooldown")
		}
		// Successful probe restores and resets the cooldown.
		b.OnResult(0, nil)
		if b.libs[0].state != breakerClosed || !b.Allow(0) {
			t.Fatal("successful probe did not restore")
		}
	})
	k.Stop()

	// Out-of-range libraries and a nil set are safe no-ops.
	if !b.Allow(99) {
		t.Fatal("out-of-range Allow refused")
	}
	b.OnResult(99, infra)
	var nb *BreakerSet
	if !nb.Allow(0) {
		t.Fatal("nil BreakerSet not a no-op")
	}
	nb.OnResult(0, infra)
}
