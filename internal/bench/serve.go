package bench

import (
	"fmt"
	"time"

	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/telemetry"
	"repro/internal/wl"
)

// publish renders the rig's current obs/heat/audit state — with the front
// end's per-request traces (/requests) when fe is not nil — and hands it to
// the telemetry server. srv may be nil. Publishing only *reads* the sim
// state at a point the sim side chose, so runs with and without a server
// execute the same virtual-time schedule — the determinism pins in
// snapshot_test.go and the crash package hold the line. The kernel
// self-profile appended to /metrics is the one wall-clock section;
// everything else stays a pure function of virtual time.
func publish(r *fsRig, srv *telemetry.Server, fe *svc.FrontEnd) {
	if srv == nil {
		return
	}
	sn := telemetry.Collect(r.hl.Obs, r.hl.Heat, r.hl.Audit, r.k.Now())
	if fe != nil && fe.Tracer != nil {
		sn.Requests = telemetry.RenderRequests(fe.Tracer, r.k.Now())
	}
	sn.Profile = telemetry.RenderProfile(r.k.ProfileSnapshot())
	srv.Publish(sn)
}

// ServeMigration drives a multi-round create → age → migrate → eject →
// demand-fetch workload (with a final whole-volume clean), publishing a
// telemetry snapshot after every step. This is the workload behind
// `hlbench -serve`: long enough to watch, and exercising every decision
// actor (policy ranking, staging, copy-out, cleaning) so /heatmap and
// /decisions have real content. It is deterministic in virtual time
// whether or not srv is attached.
func ServeMigration(s Scale, srv *telemetry.Server, rounds int) error {
	if rounds <= 0 {
		rounds = 3
	}
	r := newHLRig(s)
	r.k.EnableProfile()
	framesPer := s.Frames / (2 * rounds)
	if framesPer < 64 {
		framesPer = 64
	}
	err := r.run(func(p *sim.Proc) error {
		m := migrate.NewMigrator(r.hl)
		fe := svc.New(r.hl, svc.Config{
			Workers: 2, ReservedInteractive: 1,
			InteractiveQueue: 8, BackgroundQueue: 8,
		})
		for round := 0; round < rounds; round++ {
			path := fmt.Sprintf("/obj%d", round)
			spec := wl.LargeObjectSpec{
				Path:        path,
				Frames:      framesPer,
				SeqFrames:   framesPer / 4,
				SmallFrames: framesPer / 16,
				Seed:        uint64(42 + round),
			}
			if _, err := wl.CreateLargeObject(p, r.t, spec); err != nil {
				return err
			}
			publish(r, srv, nil)
			// Age the round's files so the policy sees an access-time
			// spread between rounds.
			p.Sleep(10 * sim.Time(time.Second))
			if _, err := m.RunOnce(p, int64(framesPer)*wl.FrameSize); err != nil {
				return err
			}
			publish(r, srv, nil)
			// Turn the next reads into demand fetches: drop buffered
			// blocks and eject every clean cache line.
			f, err := r.hl.FS.Open(p, path)
			if err != nil {
				return err
			}
			r.hl.FS.DropFileBuffers(p, f.Inum())
			if _, err := r.hl.Svc.EjectAll(); err != nil {
				return err
			}
			// The demand-fetch read goes through the front end so it is
			// admission-controlled and traced end to end: the /requests
			// endpoint shows its queue-wait, cache misses, fetch-wait, and
			// the jukebox work underneath.
			deadline := p.Now() + 120*sim.Time(time.Second)
			if err := fe.Submit(p, svc.Interactive, deadline, func(wp *sim.Proc) error {
				buf := make([]byte, 64*1024)
				_, re := f.ReadAt(wp, buf, 0)
				return re
			}); err != nil {
				return err
			}
			publish(r, srv, fe)
		}
		// Reclaim the cheapest used volume so the cleaner's decisions
		// (selected, cleaned, skipped segments) show up in the audit.
		if u, ok := r.hl.SelectCleanableVolume(); ok {
			if _, err := r.hl.CleanVolume(p, u.Device, u.Volume); err != nil {
				return err
			}
		}
		publish(r, srv, fe)
		return nil
	})
	if err != nil {
		return fmt.Errorf("bench: serve workload: %w", err)
	}
	return nil
}
