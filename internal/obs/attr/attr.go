// Package attr is the policy-attribution layer above internal/obs: it
// answers *which data* the storage hierarchy worked for, where obs
// answers *where the time went*.
//
// Two instruments:
//
//   - Table: per-tertiary-segment (and per-file) temperature records.
//     Every cache hit, demand fetch, staging migration, copy-out,
//     ejection, and clean is attributed to the segment it touched,
//     maintaining access counts, the last-touch virtual time, and an
//     exponentially-decayed heat score. Aggregated Snapshot() views are
//     what hlbench -serve exports as /heatmap.
//
//   - Audit (audit.go): the migration decision log — for every
//     candidate the migrator or the tertiary cleaner selects or skips,
//     the policy inputs and the verdict, queryable as `hldump -why`.
//
// Like obs, everything is keyed to the simulation's virtual clock and
// all methods are safe on a nil receiver, so components can attribute
// unconditionally. Heat decay uses math.Exp2 on virtual-time ratios:
// a pure function of recorded events, so a deterministic run produces
// a bit-identical table (pinned by the -serve workload's determinism test).
package attr

import (
	"math"
	"sort"
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

// String names the event kind (stable; used in exports).
func (k Kind) String() string {
	switch k {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Fetch:
		return "fetch"
	case Stage:
		return "stage"
	case Copyout:
		return "copyout"
	case Evict:
		return "evict"
	case Clean:
		return "clean"
	}
	return "unknown"
}

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

	// heat is the decayed score as of heatAt; Heat() rolls it forward.
	heat   float64
	heatAt sim.Time
}

// Heat returns the record's exponentially-decayed heat as of now.
func (r *SegRecord) Heat(halfLife sim.Time, now sim.Time) float64 {
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

// FileRecord attributes migration activity to one file.
type FileRecord struct {
	Inum        uint32
	Migrations  int64
	BytesStaged int64
	LastStaged  sim.Time
}

// Table is the heat-attribution table. The zero value is not usable;
// call NewTable. A nil *Table is valid everywhere and inert.
type Table struct {
	// HalfLife is the heat decay half-life (DefaultHalfLife if NewTable
	// was given 0).
	HalfLife sim.Time

	segs     map[int]*SegRecord
	segOrder []int

	files     map[uint32]*FileRecord
	fileOrder []uint32
}

// NewTable creates a heat table. halfLife 0 selects DefaultHalfLife.
func NewTable(halfLife sim.Time) *Table {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return &Table{
		HalfLife: halfLife,
		segs:     map[int]*SegRecord{},
		files:    map[uint32]*FileRecord{},
	}
}

func (t *Table) seg(tag int) *SegRecord {
	r := t.segs[tag]
	if r == nil {
		r = &SegRecord{Tag: tag}
		t.segs[tag] = r
		t.segOrder = append(t.segOrder, tag)
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

// TouchFile attributes a staging migration of bytes from file inum.
func (t *Table) TouchFile(inum uint32, bytes int64, now sim.Time) {
	if t == nil {
		return
	}
	f := t.files[inum]
	if f == nil {
		f = &FileRecord{Inum: inum}
		t.files[inum] = f
		t.fileOrder = append(t.fileOrder, inum)
	}
	f.Migrations++
	f.BytesStaged += bytes
	if now > f.LastStaged {
		f.LastStaged = now
	}
}

// Heat returns segment tag's decayed heat as of now (0 if untouched).
func (t *Table) Heat(tag int, now sim.Time) float64 {
	if t == nil {
		return 0
	}
	return t.segs[tag].Heat(t.HalfLife, now)
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

// SegEntry is one row of a heat-map snapshot.
type SegEntry struct {
	Tag       int     `json:"tag"`
	Heat      float64 `json:"heat"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Fetches   int64   `json:"fetches"`
	Stages    int64   `json:"stages"`
	Copyouts  int64   `json:"copyouts"`
	Evicts    int64   `json:"evicts"`
	Cleans    int64   `json:"cleans"`
	LastTouch float64 `json:"last_touch_s"`
}

// FileEntry is one per-file attribution row of a snapshot.
type FileEntry struct {
	Inum        uint32  `json:"inum"`
	Migrations  int64   `json:"migrations"`
	BytesStaged int64   `json:"bytes_staged"`
	LastStaged  float64 `json:"last_staged_s"`
}

// Snapshot aggregates the table into an exportable heat map: per-
// segment entries in tag order with heat decayed to now, plus the
// per-file migration attribution.
type Snapshot struct {
	NowSeconds float64     `json:"now_s"`
	Segments   []SegEntry  `json:"segments"`
	Files      []FileEntry `json:"files"`
}

// Snapshot renders the table as of now. Nil-safe (returns an empty
// snapshot).
func (t *Table) Snapshot(now sim.Time) *Snapshot {
	s := &Snapshot{NowSeconds: now.Seconds()}
	if t == nil {
		return s
	}
	tags := append([]int(nil), t.segOrder...)
	sort.Ints(tags)
	for _, tag := range tags {
		r := t.segs[tag]
		s.Segments = append(s.Segments, SegEntry{
			Tag:       r.Tag,
			Heat:      r.Heat(t.HalfLife, now),
			Hits:      r.Hits,
			Misses:    r.Misses,
			Fetches:   r.Fetches,
			Stages:    r.Stages,
			Copyouts:  r.Copyouts,
			Evicts:    r.Evicts,
			Cleans:    r.Cleans,
			LastTouch: r.LastTouch.Seconds(),
		})
	}
	inums := append([]uint32(nil), t.fileOrder...)
	sort.Slice(inums, func(a, b int) bool { return inums[a] < inums[b] })
	for _, in := range inums {
		f := t.files[in]
		s.Files = append(s.Files, FileEntry{
			Inum:        f.Inum,
			Migrations:  f.Migrations,
			BytesStaged: f.BytesStaged,
			LastStaged:  f.LastStaged.Seconds(),
		})
	}
	return s
}
