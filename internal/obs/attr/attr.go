// Package attr is the policy-attribution layer above internal/obs: it
// answers *which data* the storage hierarchy worked for, where obs
// answers *where the time went*.
//
// Two instruments:
//
//   - Table: per-tertiary-segment temperature records. Every cache hit,
//     demand fetch, staging migration, copy-out, ejection, and clean is
//     attributed to the segment it touched, maintaining access counts,
//     the last-touch virtual time, and an exponentially-decayed heat
//     score, which `hldump -why` prints beside the segment's decisions.
//
//   - Audit (audit.go): the migration decision log — for every
//     candidate the migrator or the tertiary cleaner selects or skips,
//     the policy inputs and the verdict, queryable as `hldump -why`.
//
// Like obs, everything is keyed to the simulation's virtual clock and
// all methods are safe on a nil receiver, so components can attribute
// unconditionally. Heat decay uses math.Exp2 on virtual-time ratios:
// a pure function of recorded events, so a deterministic run produces
// a bit-identical table (pinned by hldump's why1.golden).
package attr

import (
	"math"
	"time"

	"repro/internal/sim"
)

// Kind classifies one attributed event.
type Kind int

const (
	// Hit is a segment-cache hit.
	Hit Kind = iota
	// Miss is a segment-cache miss (the demand fetch it triggers is
	// attributed separately when it completes).
	Miss
	// Fetch is a completed demand fetch from tertiary storage.
	Fetch
	// Stage marks blocks staged into the segment by the migrator.
	Stage
	// Copyout marks the segment's arrival on tertiary media.
	Copyout
	// Evict is a cache-line ejection.
	Evict
	// Clean marks the tertiary cleaner re-staging the segment's live
	// blocks elsewhere.
	Clean
)

// heatWeight is the per-event heat contribution. Reads dominate: a
// demand fetch is the expensive event the policies exist to avoid, so
// it outweighs an in-cache hit; bookkeeping events (copy-out, evict,
// clean) count but add no heat.
func heatWeight(k Kind) float64 {
	switch k {
	case Hit:
		return 1
	case Fetch:
		return 4
	case Stage:
		return 2
	default:
		return 0
	}
}

// DefaultHalfLife is the heat decay half-life: 30 virtual seconds, a
// few migrator poll intervals.
const DefaultHalfLife = 30 * sim.Time(time.Second)

// SegRecord is the temperature record of one tertiary segment.
type SegRecord struct {
	Tag int

	Hits, Misses, Fetches int64
	Stages, Copyouts      int64
	Evicts, Cleans        int64

	LastTouch sim.Time

	// heat is the decayed score as of heatAt; score rolls it forward.
	heat   float64
	heatAt sim.Time
}

// score returns the record's exponentially-decayed heat as of now.
func (r *SegRecord) score(halfLife sim.Time, now sim.Time) float64 {
	if r == nil {
		return 0
	}
	return decay(r.heat, r.heatAt, now, halfLife)
}

func decay(heat float64, from, to sim.Time, halfLife sim.Time) float64 {
	if to <= from || heat == 0 {
		return heat
	}
	return heat * math.Exp2(-float64(to-from)/float64(halfLife))
}

// Table is the heat-attribution table. The zero value is not usable;
// call NewTable. A nil *Table is valid everywhere and inert.
type Table struct {
	// HalfLife is the heat decay half-life (DefaultHalfLife if NewTable
	// was given 0).
	HalfLife sim.Time

	segs map[int]*SegRecord
}

// NewTable creates a heat table. halfLife 0 selects DefaultHalfLife.
func NewTable(halfLife sim.Time) *Table {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Table{
		HalfLife: halfLife,
		segs:     map[int]*SegRecord{},
	}
}

func (t *Table) seg(tag int) *SegRecord {
	r := t.segs[tag]
	if r == nil {
		r = &SegRecord{Tag: tag}
		t.segs[tag] = r
	}
	return r
}

// Touch attributes one event to tertiary segment tag at virtual time
// now: the matching count increments, LastTouch advances, and the heat
// decays to now before the event's weight is added.
func (t *Table) Touch(tag int, k Kind, now sim.Time) {
	if t == nil {
		return
	}
	r := t.seg(tag)
	switch k {
	case Hit:
		r.Hits++
	case Miss:
		r.Misses++
	case Fetch:
		r.Fetches++
	case Stage:
		r.Stages++
	case Copyout:
		r.Copyouts++
	case Evict:
		r.Evicts++
	case Clean:
		r.Cleans++
	}
	if now > r.LastTouch {
		r.LastTouch = now
	}
	r.heat = decay(r.heat, r.heatAt, now, t.HalfLife) + heatWeight(k)
	r.heatAt = now
}

// Heat returns segment tag's decayed heat as of now (0 if untouched).
func (t *Table) Heat(tag int, now sim.Time) float64 {
	if t == nil {
		return 0
	}
	return t.segs[tag].score(t.HalfLife, now)
}

// Seg returns a copy of tag's record (ok=false if never touched).
func (t *Table) Seg(tag int) (SegRecord, bool) {
	if t == nil {
		return SegRecord{}, false
	}
	r, ok := t.segs[tag]
	if !ok {
		return SegRecord{}, false
	}
	return *r, true
}
