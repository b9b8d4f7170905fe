// Package migrate implements HighLight's user-level migration policies
// (§5) and the migrator process (§6.7) that embodies them: it examines the
// collection of on-disk file blocks, decides which should move to tertiary
// storage, and drives the staging mechanism in internal/core.
package migrate

import (
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Candidate is one ranked migration unit: a file (or, for the namespace
// policy, a member of a directory unit) with its policy score.
type Candidate struct {
	Inum  uint32
	Path  string
	Size  uint64
	Atime int64
	Score float64
	Unit  string // namespace unit the file belongs to, if any
}

// Policy ranks migration candidates. Select returns candidates, best
// first, whose total size is at least targetBytes (or everything eligible
// if less is available).
type Policy interface {
	Name() string
	Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error)
}

// STP is the space-time product policy (§5.1): rank files by
// (time since last access)^TimeExp × size^SizeExp, as recommended by
// Lawrie et al. and Smith. The current migrator uses exponents of 1 for
// both (the paper's configuration).
type STP struct {
	TimeExp float64
	SizeExp float64
	// MinAge excludes recently active files entirely.
	MinAge sim.Time
}

// NewSTP returns the paper's configuration: both exponents 1.
func NewSTP() *STP { return &STP{TimeExp: 1, SizeExp: 1} }

// Name implements Policy.
func (s *STP) Name() string { return "stp" }

// Select implements Policy.
func (s *STP) Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error) {
	return rankFiles(p, hl, targetBytes, "policy:stp", s.MinAge, func(age sim.Time, size uint64) float64 {
		return math.Pow(float64(age), s.TimeExp) * math.Pow(float64(size), s.SizeExp)
	})
}

// rankFiles is the ranking every per-file policy shares; the policies
// differ in score alone. It walks the namespace, leaves out files younger
// than minAge (audited under actor), scores the rest, sorts best first
// (ties by inode number), keeps enough to reach target and audits one
// verdict per ranked file.
func rankFiles(p *sim.Proc, hl *core.HighLight, target int64, actor string, minAge sim.Time,
	score func(age sim.Time, size uint64) float64) ([]Candidate, error) {
	now := p.Now()
	var cands []Candidate
	err := hl.FS.Walk(p, "/", func(path string, fi lfs.FileInfo) error {
		if fi.Type != lfs.TypeFile || fi.Size == 0 {
			return nil
		}
		age := now - sim.Time(fi.Atime)
		if age < 0 {
			age = 0 // resumed image: access times may be "in the future"
		}
		if age < minAge {
			hl.Audit.Record(attr.Decision{
				T: now, Actor: actor, Subject: "file:" + path,
				Seg: -1, Verdict: attr.VerdictSkipped, Reason: "younger than min age",
				Inputs: []attr.Input{
					attr.In("age_s", age.Seconds()),
					attr.In("min_age_s", minAge.Seconds()),
					attr.In("size", float64(fi.Size)),
				},
			})
			return nil
		}
		cands = append(cands, Candidate{
			Inum:  fi.Inum,
			Path:  path,
			Size:  fi.Size,
			Atime: fi.Atime,
			Score: score(age, fi.Size),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Inum < cands[b].Inum
	})
	taken := takeTarget(cands, target)
	auditRanking(hl, actor, now, cands, len(taken))
	return taken, nil
}

// auditRanking records one decision per ranked candidate: the first
// nTaken are selected, the rest were examined but fell past the byte
// target. Seg is -1 — policies rank files; the staging mechanism later
// attributes them to the tertiary segment they land in.
func auditRanking(hl *core.HighLight, actor string, now sim.Time, cands []Candidate, nTaken int) {
	for i, c := range cands {
		d := attr.Decision{
			T: now, Actor: actor, Subject: "file:" + c.Path,
			Seg: -1, Verdict: attr.VerdictSelected,
			Inputs: []attr.Input{
				attr.In("rank", float64(i)),
				attr.In("score", c.Score),
				attr.In("age_s", (now - sim.Time(c.Atime)).Seconds()),
				attr.In("size", float64(c.Size)),
			},
		}
		if i >= nTaken {
			d.Verdict = attr.VerdictSkipped
			d.Reason = "ranked past byte target"
		}
		hl.Audit.Record(d)
	}
}

// AccessTime ranks purely by time since last access (the policy the
// earlier studies found inferior to STP — kept as a comparison ablation).
type AccessTime struct {
	MinAge sim.Time
}

// Name implements Policy.
func (a *AccessTime) Name() string { return "atime" }

// Select implements Policy.
func (a *AccessTime) Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error) {
	return (&STP{TimeExp: 1, SizeExp: 0, MinAge: a.MinAge}).Select(p, hl, targetBytes)
}

// LRU is the pure least-recently-used competitor: rank strictly by access
// age, oldest first, ignoring size. The classic archive policy the early
// migration studies (and §5.1) compare STP against — it moves the coldest
// files but wastes staging passes on small ones.
type LRU struct {
	// MinAge excludes recently active files entirely.
	MinAge sim.Time
}

// Name implements Policy.
func (l *LRU) Name() string { return "lru" }

// Select implements Policy.
func (l *LRU) Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error) {
	return rankFiles(p, hl, targetBytes, "policy:lru", l.MinAge, func(age sim.Time, size uint64) float64 {
		return age.Seconds()
	})
}

// HeatCost is the heat-weighted-cost competitor: the space-time product
// discounted by the file's recent heat, so a large old file that is still
// being touched ranks below a slightly smaller stone-cold one. Score =
// age × size / (1 + HeatWeight × 2^(-age/halfLife)), the half-life being
// the heat-attribution table's: for ages much larger than it the discount
// vanishes and the ranking converges to STP; for recently touched files the
// denominator demotes them sharply — exactly the files whose eviction would
// cause interactive stalls.
type HeatCost struct {
	MinAge sim.Time
	// HeatWeight scales the recency discount (default 8 when zero).
	HeatWeight float64
}

// Name implements Policy.
func (h *HeatCost) Name() string { return "heatcost" }

// Select implements Policy.
func (h *HeatCost) Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error) {
	w := h.HeatWeight
	if w == 0 {
		w = 8
	}
	half := attr.DefaultHalfLife.Seconds()
	if hl.Heat != nil && hl.Heat.HalfLife > 0 {
		half = hl.Heat.HalfLife.Seconds()
	}
	return rankFiles(p, hl, targetBytes, "policy:heatcost", h.MinAge, func(age sim.Time, size uint64) float64 {
		hot := math.Exp2(-age.Seconds() / half)
		return age.Seconds() * float64(size) / (1 + w*hot)
	})
}

// Namespace is the namespace-locality policy (§5.3): directory subtrees
// are migration units scored by a "unitsize"-time product, where unitsize
// aggregates the component files and the age is taken from the most
// recently accessed file. Units migrate together, clustering related
// small files in the same tertiary segments.
type Namespace struct {
	TimeExp float64
	SizeExp float64
	MinAge  sim.Time
	// IgnoreHotStable applies the §5.3 secondary criterion: when the
	// most recently accessed file of a unit has not been modified for
	// StableAge, its access time is ignored, so units of mostly-dormant
	// files still migrate.
	IgnoreHotStable bool
	StableAge       sim.Time
}

// NewNamespace returns the default configuration (exponents 1).
func NewNamespace() *Namespace {
	return &Namespace{TimeExp: 1, SizeExp: 1, IgnoreHotStable: true, StableAge: 0}
}

// Name implements Policy.
func (n *Namespace) Name() string { return "namespace" }

type unit struct {
	dir   string
	files []Candidate
	size  uint64
	score float64
}

// Select implements Policy.
func (n *Namespace) Select(p *sim.Proc, hl *core.HighLight, targetBytes int64) ([]Candidate, error) {
	now := p.Now()
	units := map[string]*unit{}
	err := hl.FS.Walk(p, "/", func(path string, fi lfs.FileInfo) error {
		if fi.Type != lfs.TypeFile || fi.Size == 0 {
			return nil
		}
		dir := parentDir(path)
		u, ok := units[dir]
		if !ok {
			u = &unit{dir: dir}
			units[dir] = u
		}
		u.files = append(u.files, Candidate{
			Inum: fi.Inum, Path: path, Size: fi.Size, Atime: fi.Atime, Unit: dir,
		})
		u.size += fi.Size
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ranked []*unit
	for _, u := range units {
		// Unit age: time since the most recent access among the files,
		// optionally ignoring the single hottest file when it is stable
		// (unchanged for StableAge).
		sort.Slice(u.files, func(a, b int) bool { return u.files[a].Atime > u.files[b].Atime })
		ages := u.files
		if n.IgnoreHotStable && len(ages) > 1 {
			hot := ages[0]
			if fiStable(p, hl, hot, now, n.StableAge) {
				ages = ages[1:]
			}
		}
		age := now - sim.Time(ages[0].Atime)
		if age < 0 {
			age = 0
		}
		if age < n.MinAge {
			hl.Audit.Record(attr.Decision{
				T: now, Actor: "policy:namespace", Subject: "unit:" + u.dir,
				Seg: -1, Verdict: attr.VerdictSkipped, Reason: "unit younger than min age",
				Inputs: []attr.Input{
					attr.In("age_s", age.Seconds()),
					attr.In("size", float64(u.size)),
					attr.In("files", float64(len(u.files))),
				},
			})
			continue
		}
		u.score = math.Pow(float64(age), n.TimeExp) * math.Pow(float64(u.size), n.SizeExp)
		ranked = append(ranked, u)
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].dir < ranked[b].dir
	})
	var out []Candidate
	var total int64
	done := false
	for _, u := range ranked {
		if done {
			hl.Audit.Record(attr.Decision{
				T: now, Actor: "policy:namespace", Subject: "unit:" + u.dir,
				Seg: -1, Verdict: attr.VerdictSkipped, Reason: "ranked past byte target",
				Inputs: []attr.Input{
					attr.In("score", u.score),
					attr.In("size", float64(u.size)),
				},
			})
			continue
		}
		// Keep unit members together: sort by path so namespace
		// neighbours land in the same staging segments.
		sort.Slice(u.files, func(a, b int) bool { return u.files[a].Path < u.files[b].Path })
		for _, f := range u.files {
			f.Score = u.score
			out = append(out, f)
		}
		hl.Audit.Record(attr.Decision{
			T: now, Actor: "policy:namespace", Subject: "unit:" + u.dir,
			Seg: -1, Verdict: attr.VerdictSelected,
			Inputs: []attr.Input{
				attr.In("score", u.score),
				attr.In("size", float64(u.size)),
				attr.In("files", float64(len(u.files))),
			},
		})
		total += int64(u.size)
		if targetBytes > 0 && total >= targetBytes {
			done = true
		}
	}
	return out, nil
}

func fiStable(p *sim.Proc, hl *core.HighLight, c Candidate, now, stableAge sim.Time) bool {
	fi, err := hl.FS.Stat(p, c.Path)
	if err != nil {
		return false
	}
	return now-sim.Time(fi.Mtime) >= stableAge
}

func parentDir(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// takeTarget keeps the best candidates until their sizes reach target.
func takeTarget(cands []Candidate, target int64) []Candidate {
	if target <= 0 {
		return cands
	}
	var total int64
	for i, c := range cands {
		total += int64(c.Size)
		if total >= target {
			return cands[:i+1]
		}
	}
	return cands
}
