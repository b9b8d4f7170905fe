package crash

import "fmt"

// Cut is one planned power-cut point.
type Cut struct {
	Phase string
	Event int
}

// Report is the outcome of a full crash-matrix run.
type Report struct {
	Cfg         Config
	TotalEvents int
	Phases      []PhaseSpan
	Cuts        []Cut
	Outcomes    []*Outcome
}

// CacheDropCuts counts cut points at which the volatile disk write cache
// held unflushed blocks — the cases proving the durability model tolerates
// dropped cache contents.
func (r *Report) CacheDropCuts() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.WCacheDirty > 0 {
			n++
		}
	}
	return n
}

// PlanCuts spreads perPhase cut events evenly across each workload
// phase's media-write span. It refuses to plan a thinner matrix than
// asked for: a phase too short for perPhase distinct events is an error,
// not a silent reduction.
func PlanCuts(phases []PhaseSpan, perPhase int) ([]Cut, error) {
	if perPhase < 1 {
		return nil, fmt.Errorf("crash: perPhase %d < 1", perPhase)
	}
	var cuts []Cut
	for _, span := range phases {
		n := span.End - span.Start
		if n < perPhase {
			return nil, fmt.Errorf("crash: phase %q spans only %d media writes, need %d cut points",
				span.Phase, n, perPhase)
		}
		for k := 0; k < perPhase; k++ {
			ev := span.Start + 1
			if perPhase > 1 {
				ev += k * (n - 1) / (perPhase - 1)
			}
			cuts = append(cuts, Cut{Phase: span.Phase, Event: ev})
		}
	}
	return cuts, nil
}

// RunMatrix executes the crash matrix: one pristine workload run to
// discover the phase spans, then one power cut per planned event, each
// recovered on a fresh kernel and audited. Deterministic per Config.Seed:
// two runs yield identical outcomes (including digests).
func RunMatrix(cfg Config, perPhase int) (*Report, error) {
	pristine, err := runWorkload(cfg, 0)
	if err != nil {
		return nil, err
	}
	if !pristine.EOMHit {
		return nil, fmt.Errorf("crash: workload never hit end-of-medium on volume %d (rig too small?)", cfg.EOMVol)
	}
	if pristine.Swaps == 0 {
		return nil, fmt.Errorf("crash: workload performed no volume swaps")
	}
	cuts, err := PlanCuts(pristine.Phases, perPhase)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Cfg:         cfg,
		TotalEvents: pristine.TotalEvents,
		Phases:      pristine.Phases,
		Cuts:        cuts,
	}
	for _, c := range cuts {
		res, err := runWorkload(cfg, c.Event)
		if err != nil {
			return nil, fmt.Errorf("crash: replaying to event %d (%s): %w", c.Event, c.Phase, err)
		}
		if res.Snap == nil {
			return nil, fmt.Errorf("crash: replay never reached event %d (%s)", c.Event, c.Phase)
		}
		out, err := Recover(cfg, res.Snap)
		if err != nil {
			return nil, err
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}
