package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/svc"
)

// The policy shootout: the paper's STP ranker against the pure-LRU and
// heat-weighted-cost competitors, each driving the same migrator over the
// same seeded workloads. The quality question is the one §5.1 poses for
// migration policy: does the policy move dormant data (cheap to have moved)
// or data the interactive future comes back for (stalls)?
//
// Each cell runs three phases on a fresh rig: a seeded access phase that
// differentiates file ages and heat, one migration round under the policy
// (fixed byte target), and a seeded "future" phase replaying the same access
// distribution through the admission front end. Reported per cell:
//
//	hit_rate    fraction of future reads served without a demand fetch
//	p99_ms      future interactive p99 latency (the stall metric)
//	bytes_moved bytes the policy staged out
const (
	shootFiles = 20
	shootSeed  = 20260808
)

// shootBlocks is file i's size in blocks: sizes cycle 8..56 so the
// space-time product actually diverges from pure recency ordering (equal
// sizes would collapse STP onto LRU).
func shootBlocks(i int) int { return 8 + (i%4)*16 }

// shootPolicies returns the contenders, fresh per cell (policies are
// stateless but cheap to rebuild, and fresh values keep cells independent).
func shootPolicies() []migrate.Policy {
	return []migrate.Policy{migrate.NewSTP(), &migrate.LRU{}, &migrate.HeatCost{}}
}

// shootWorkloads are the access distributions: skewed concentrates 80% of
// reads on a 4-file hot set (the policy can win by leaving those on disk);
// uniform spreads reads evenly (no policy can look much better than
// another — a sanity row).
var shootWorkloads = []string{"skewed", "uniform"}

// shootPick draws one file index from the named distribution.
func shootPick(rng *sim.RNG, workload string) int {
	if workload == "skewed" && rng.Intn(100) < 80 {
		return rng.Intn(4)
	}
	return rng.Intn(shootFiles)
}

// shootCell runs one policy × workload cell.
func shootCell(pol migrate.Policy, workload string) (hitRate, p99ms, bytesMoved float64, err error) {
	err = newStudyRig(frontEndGeom).run(nil, func(p *sim.Proc, hl *core.HighLight) error {
		// The files are created two seconds apart, so the population has
		// an age spread before any access differentiates it further.
		var inums []uint32
		for i := 0; i < shootFiles; i++ {
			f, err := writeFile(p, hl.FS, fmt.Sprintf("/f%02d", i), shootBlocks(i))
			if err != nil {
				return err
			}
			inums = append(inums, f.Inum())
			p.Sleep(sim.Time(2 * time.Second))
		}
		if err := hl.FS.Sync(p); err != nil {
			return err
		}

		// Access phase: differentiate atimes and heat under the workload's
		// distribution.
		rng := sim.NewRNG(shootSeed)
		buf := make([]byte, lfs.BlockSize)
		for q := 0; q < 150; q++ {
			i := shootPick(rng, workload)
			f, err := hl.FS.OpenInum(p, inums[i])
			if err != nil {
				return err
			}
			if _, err := f.ReadAt(p, buf, int64(rng.Intn(shootBlocks(i)))*lfs.BlockSize); err != nil && err != io.EOF {
				return err
			}
			p.Sleep(sim.Time(500 * time.Millisecond))
		}
		p.Sleep(sim.Time(30 * time.Second))

		// Migration round: the policy picks, the same migrator moves. The
		// byte target (60% of the data set) forces real choices.
		m := migrate.NewMigrator(hl)
		m.Policy = pol
		var totalBlocks int
		for i := 0; i < shootFiles; i++ {
			totalBlocks += shootBlocks(i)
		}
		target := int64(totalBlocks) * lfs.BlockSize * 6 / 10
		staged, err := m.RunOnce(p, target)
		if err != nil {
			return err
		}
		bytesMoved = float64(staged)
		if _, err := hl.Svc.EjectAll(); err != nil {
			return err
		}

		// Future phase: the same distribution replays through the front
		// end; demand fetches and interactive latency are the price of the
		// policy's choices.
		fe := svc.New(hl, svc.Config{})
		fetches0 := hl.Svc.Stats().Fetches
		const futureReads = 150
		frng := sim.NewRNG(shootSeed + 1)
		for q := 0; q < futureReads; q++ {
			i := shootPick(frng, workload)
			err := fe.Submit(p, svc.Interactive, 0, func(wp *sim.Proc) error {
				f, err := hl.FS.OpenInum(wp, inums[i])
				if err != nil {
					return err
				}
				hl.FS.DropFileBuffers(wp, inums[i])
				if _, err := f.ReadAt(wp, buf, int64(frng.Intn(shootBlocks(i)))*lfs.BlockSize); err != nil && err != io.EOF {
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.Sleep(sim.Time(200 * time.Millisecond))
		}
		fetched := hl.Svc.Stats().Fetches - fetches0
		hitRate = 1 - float64(fetched)/float64(futureReads)
		if hitRate < 0 {
			hitRate = 0
		}
		p99ms = fe.Stats().P99Interactive.Seconds() * 1000
		return nil
	})
	return hitRate, p99ms, bytesMoved, err
}

// ablationPolicy is the migration-policy shootout table: every contender
// policy against every workload at a fixed geometry (the table rigs' scale
// knob does not apply; one entry covers both scales).
func ablationPolicy() (*Report, error) {
	rep := newReport("Ablation: migration policy shootout (STP vs LRU vs heat-weighted cost, 60% byte target)")
	rep.addf("%-10s %-9s %10s %10s %12s", "policy", "workload", "hit rate", "p99 ms", "moved MB")
	for _, pol := range shootPolicies() {
		for _, workload := range shootWorkloads {
			hitRate, p99ms, moved, err := shootCell(pol, workload)
			if err != nil {
				return rep, fmt.Errorf("policy shootout %s/%s: %w", pol.Name(), workload, err)
			}
			rep.addf("%-10s %-9s %10.3f %10.1f %12.2f",
				pol.Name(), workload, hitRate, p99ms, moved/(1<<20))
			key := pol.Name() + "/" + workload
			rep.metric(key+"/hit_rate", hitRate)
			rep.metric(key+"/p99_ms", p99ms)
			rep.metric(key+"/bytes_moved", moved)
		}
	}
	return rep, nil
}
