package hsm

import (
	"fmt"
	"sort"

	"repro/internal/obs/attr"
	"repro/internal/sim"
)

// Quota bounds one principal's use of the staged tier. Zero fields are
// unlimited. StagedSoft is the GC watermark: usage above it makes the
// principal's least-hot unpinned staged data eligible for reclaim.
// StagedHard and PinnedHard are admission limits: a StageIn or Pin
// projected past them is shed with ErrQuotaExceeded.
type Quota struct {
	StagedSoft int64
	StagedHard int64
	PinnedHard int64
}

// SetQuota installs (or, with a zero Quota, removes) the limits for one
// principal and persists the change.
func (s *Service) SetQuota(p *sim.Proc, principal string, q Quota) error {
	s.exec.Acquire(p)
	defer s.exec.Release(p)
	if q == (Quota{}) {
		delete(s.quotas, principal)
	} else {
		s.quotas[principal] = q
	}
	return s.save(p)
}

// QuotaOf reports the principal's limits (zero = unlimited).
func (s *Service) QuotaOf(principal string) Quota { return s.quotas[principal] }

// Principals lists every principal with a quota or any usage, sorted.
func (s *Service) Principals() []string {
	seen := make(map[string]bool)
	for pr := range s.quotas {
		seen[pr] = true
	}
	for _, pin := range s.pins {
		seen[pin.Principal] = true
	}
	for _, st := range s.staged {
		seen[st.Principal] = true
	}
	out := make([]string, 0, len(seen))
	for pr := range seen {
		out = append(out, pr)
	}
	sort.Strings(out)
	return out
}

// UsageOf reports the principal's current staged and pinned byte usage.
func (s *Service) UsageOf(principal string) (staged, pinned int64) {
	for _, st := range s.staged {
		if st.Principal == principal {
			staged += st.Bytes
		}
	}
	for _, pin := range s.pins {
		if pin.Principal == principal {
			pinned += pin.Bytes
		}
	}
	return staged, pinned
}

// RunQuotaGC reclaims staged data from principals over their soft limits:
// for each (in sorted order), the least-hot unpinned staged entries are
// ejected from the segment cache until the principal is back under the
// watermark. Pinned entries and busy lines are never touched. Returns the
// bytes reclaimed; every reclaim is audited.
func (s *Service) RunQuotaGC(p *sim.Proc) (int64, error) {
	s.exec.Acquire(p)
	defer s.exec.Release(p)
	var total int64
	now := p.Now()
	for _, principal := range s.Principals() {
		q := s.quotas[principal]
		if q.StagedSoft <= 0 {
			continue
		}
		staged, _ := s.UsageOf(principal)
		if staged <= q.StagedSoft {
			continue
		}
		// Collect the principal's unpinned staged entries, coldest first
		// (heat = hottest segment of the entry, decayed to now; ties
		// break on path so the order is deterministic).
		type cand struct {
			st   *stagedEntry
			heat float64
		}
		var cands []cand
		for _, path := range sortedKeys(s.staged) {
			st := s.staged[path]
			if st.Principal != principal {
				continue
			}
			if _, pinned := s.pins[path]; pinned {
				continue
			}
			var h float64
			for _, seg := range st.Segs {
				if sh := s.HL.Heat.Heat(seg, now); sh > h {
					h = sh
				}
			}
			cands = append(cands, cand{st, h})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].heat != cands[b].heat {
				return cands[a].heat < cands[b].heat
			}
			return cands[a].st.Path < cands[b].st.Path
		})
		for _, c := range cands {
			if staged <= q.StagedSoft {
				break
			}
			var reclaimed int64
			for _, tag := range c.st.Segs {
				l, ok := s.HL.Cache.Peek(tag)
				if !ok {
					continue
				}
				if !s.HL.Cache.Evictable(l) {
					continue
				}
				if err := s.HL.Svc.Eject(tag); err != nil {
					return total, fmt.Errorf("hsm: quota GC ejecting segment %d: %w", tag, err)
				}
				reclaimed += s.segBytes()
			}
			staged -= c.st.Bytes
			total += c.st.Bytes
			s.reclaimed.Add(c.st.Bytes)
			delete(s.staged, c.st.Path)
			s.HL.Audit.Record(attr.Decision{
				T: now, Actor: "hsm-gc", Subject: "principal:" + principal,
				Seg: -1, Verdict: attr.VerdictReclaimed, Reason: c.st.Path,
				Inputs: []attr.Input{
					attr.In("bytes", float64(c.st.Bytes)),
					attr.In("heat", c.heat),
					attr.In("over_by", float64(staged+c.st.Bytes-q.StagedSoft)),
					attr.In("ejected", float64(reclaimed)),
				},
			})
		}
	}
	if total > 0 {
		s.updateGauges()
		if err := s.save(p); err != nil {
			return total, err
		}
	}
	return total, nil
}

// StartGCDaemon starts the quota-GC daemon: a periodic virtual-time pass
// over every principal's soft limit.
func (s *Service) StartGCDaemon(every sim.Time) {
	s.HL.K.GoDaemon("hsm-gc", func(p *sim.Proc) {
		for {
			p.Sleep(every)
			if _, err := s.RunQuotaGC(p); err != nil {
				s.HL.Obs.Instant("hsm", "hsm.gc", "gc error")
			}
		}
	})
}
