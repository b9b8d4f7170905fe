package hsm

import (
	"sort"

	"repro/internal/sim"
)

// Quota bounds one principal's use of the staged tier. Zero fields are
// unlimited. Both are admission limits: a StageIn or Pin projected past them
// is shed with ErrQuotaExceeded.
type Quota struct {
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
