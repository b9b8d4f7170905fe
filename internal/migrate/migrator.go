package migrate

import (
	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"time"
)

// Migrator is the user-level migration process (§6.7): a second cleaner
// that runs continuously, monitoring storage needs and migrating file data
// as required — unlike the daily clean-up computation of Strange's model
// (§8.2).
type Migrator struct {
	HL     *core.HighLight
	Policy Policy

	// MigrateInodes also moves inodes to tertiary storage (§4); indirect
	// blocks always migrate with their data.
	MigrateInodes bool
	// LowWaterSegs triggers migration when clean+cleanable disk space
	// falls below it; migration then proceeds until HighWaterSegs worth
	// of disk bytes have been staged out.
	LowWaterSegs, HighWaterSegs int
	// Interval is the daemon poll period (default 5 virtual seconds).
	Interval sim.Time

	// Streams, above 1, runs the copy-out pipeline with that many
	// concurrent tertiary I/O streams (configure core.Config.Streams to
	// match) and migrates candidates file by file with a bounded
	// in-flight copy-out window, so staging fills overlap with drains
	// instead of strictly alternating.
	Streams int

	// Throttle, if set, is consulted by Daemon before each migration
	// round; a true return skips the round (graceful-degradation
	// "brownout": background migration yields to interactive traffic).
	Throttle func() bool

	// Stats.
	Runs        int64
	BytesStaged int64
}

// NewMigrator returns a migrator with the paper's default policy (STP with
// exponents of 1).
func NewMigrator(hl *core.HighLight) *Migrator {
	return &Migrator{
		HL:            hl,
		Policy:        NewSTP(),
		LowWaterSegs:  hl.Amap.DiskSegs() / 8,
		HighWaterSegs: hl.Amap.DiskSegs() / 4,
		Interval:      5 * time.Second,
	}
}

// RunOnce selects candidates for targetBytes and migrates them, completing
// all copyouts before returning.
func (m *Migrator) RunOnce(p *sim.Proc, targetBytes int64) (int64, error) {
	t0 := p.Now()
	cands, err := m.Policy.Select(p, m.HL, targetBytes)
	if err != nil {
		return 0, err
	}
	if len(cands) == 0 {
		return 0, nil
	}
	var staged int64
	defer func() {
		m.HL.Obs.Span("migrator", "migrate.run", "RunOnce", t0,
			obs.Arg{Key: "candidates", Val: int64(len(cands))}, obs.Arg{Key: "staged", Val: staged})
		// The run summary records the pressure inputs the policy acted
		// under: reclaimable disk space and cache headroom.
		m.HL.Audit.Record(attr.Decision{
			T: m.HL.K.Now(), Actor: "migrator", Subject: "run:" + m.Policy.Name(),
			Seg: -1, Verdict: attr.VerdictRun,
			Inputs: []attr.Input{
				attr.In("target_bytes", float64(targetBytes)),
				attr.In("candidates", float64(len(cands))),
				attr.In("staged_bytes", float64(staged)),
				attr.In("clean_segs", float64(m.HL.FS.CleanSegs())),
				attr.In("cache_free_lines", float64(m.HL.Cache.FreeLines())),
			},
		})
	}()
	if w := m.window(); w > 0 {
		// Pipelined migration: one candidate at a time so completed
		// staging segments start draining to tertiary while later
		// candidates are still being gathered, with outstanding
		// copy-outs capped at the window (the repair pass's
		// bounded-concurrency shape). Each file's source segments are
		// reserved against the cleaner while its refs are in flight.
		if err := m.HL.FS.Sync(p); err != nil {
			return 0, err
		}
		for _, c := range cands {
			segs, err := m.sourceSegments(p, c.Inum)
			if err != nil {
				return staged, err
			}
			m.HL.FS.ReserveSegments(segs)
			n, err := m.HL.MigrateFiles(p, []uint32{c.Inum}, m.MigrateInodes)
			m.HL.FS.ReleaseSegments(segs)
			staged += n
			if err != nil {
				return staged, err
			}
			for m.HL.Svc.OutstandingCopyouts() >= w {
				m.HL.Svc.WaitCopyoutProgress(p)
			}
		}
	} else {
		inums := make([]uint32, len(cands))
		for i, c := range cands {
			inums[i] = c.Inum
		}
		staged, err = m.HL.MigrateFiles(p, inums, m.MigrateInodes)
		if err != nil {
			return staged, err
		}
	}
	if err := m.HL.CompleteMigration(p); err != nil {
		return staged, err
	}
	m.Runs++
	m.BytesStaged += staged
	return staged, nil
}

// window reports the copy-out window of the pipelined path (the bound on
// outstanding copy-outs), or 0 for the historical single-batch migration.
func (m *Migrator) window() int {
	if m.Streams > 1 {
		return 2 * m.Streams
	}
	return 0
}

// sourceSegments lists the distinct disk segments holding a file's blocks
// — the set to reserve against the cleaner while the file migrates.
func (m *Migrator) sourceSegments(p *sim.Proc, inum uint32) ([]addr.SegNo, error) {
	refs, err := m.HL.FS.FileBlockRefs(p, inum)
	if err != nil {
		return nil, err
	}
	seen := make(map[addr.SegNo]bool)
	var segs []addr.SegNo
	for _, r := range refs {
		s := m.HL.Amap.SegOf(r.Addr)
		if m.HL.Amap.IsDiskSeg(s) && !seen[s] {
			seen[s] = true
			segs = append(segs, s)
		}
	}
	return segs, nil
}

// Daemon runs the migrator as a background process: when the clean-segment
// pool drops below the low-water mark it migrates enough dormant data to
// bring reclaimable space back to the high-water mark (migrated blocks die
// on disk; the cleaner then reclaims their segments).
func (m *Migrator) Daemon(p *sim.Proc) {
	interval := m.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	segBytes := int64(m.HL.Amap.SegBlocks()) * lfs.BlockSize
	for {
		p.Sleep(interval)
		if m.Throttle != nil && m.Throttle() {
			continue // brownout: stand down until pressure clears
		}
		free := m.HL.FS.CleanSegs()
		if free >= m.LowWaterSegs {
			continue
		}
		target := int64(m.HighWaterSegs-free) * segBytes
		if _, err := m.RunOnce(p, target); err != nil {
			// Out of tertiary space or transient failure: stand down
			// until the next poll (the operator sees it via stats).
			continue
		}
	}
}
