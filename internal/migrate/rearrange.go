package migrate

import (
	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// Rearranger implements the §5.4 rewrite-on-fetch policy: "A better
// approach might be to rewrite segments to tertiary storage as they are
// read into the cache. This is more likely to reflect true access
// locality." Demand-fetched segments queue up and each RunOnce
// re-stages them onto the current migration volume in fetch order, so data
// that are accessed together end up clustered together — at the cost of
// extra tertiary consumption (the old copies die and await the volume
// cleaner), exactly the trade-off the paper describes.
type Rearranger struct {
	HL *core.HighLight

	queue []int

	// Stats.
	Rewritten       int64 // segments re-staged
	BlocksClustered int64
}

// rearrangeMinBatch defers rewriting until this many fetched segments have
// accumulated, so a lone fetch does not trigger tertiary writes that would
// interfere with demand-fetch read traffic (§5.4's stated concern).
const rearrangeMinBatch = 2

// NewRearranger wires the rearranger into the service process's fetch
// notifications and returns it; each RunOnce rewrites what has queued up.
func NewRearranger(hl *core.HighLight) *Rearranger {
	ra := &Rearranger{HL: hl}
	hl.Svc.OnFetched = func(tag int) {
		ra.queue = append(ra.queue, tag)
	}
	return ra
}

// RunOnce rewrites the currently queued fetched segments (in fetch order)
// and completes the migration. It returns the number of segments
// rewritten.
func (ra *Rearranger) RunOnce(p *sim.Proc) (int, error) {
	if len(ra.queue) < rearrangeMinBatch {
		return 0, nil
	}
	batch := ra.queue
	ra.queue = nil
	done := 0
	for _, tag := range batch {
		// The segment may have been evicted, cleaned or already
		// rewritten since it was fetched; only dirty segments with
		// live data are worth moving.
		su := ra.HL.FS.TsegUsage(tag)
		if su.Flags&lfs.SegDirty == 0 || su.LiveBytes == 0 {
			continue
		}
		moved, err := ra.HL.RestageTertSegment(p, tag)
		if err != nil {
			return done, err
		}
		if moved > 0 {
			done++
			ra.Rewritten++
			ra.BlocksClustered += int64(moved)
		}
	}
	if done == 0 {
		return 0, nil
	}
	return done, ra.HL.CompleteMigration(p)
}
