package crash

import "fmt"

// cutPoint is one planned power-cut point.
type cutPoint struct {
	Phase string
	Event int
}

// report is the outcome of a full crash-matrix run.
type report struct {
	Cfg         config
	TotalEvents int
	Phases      []phaseSpan
	Cuts        []cutPoint
	Outcomes    []*outcome
}

// cacheDropCuts counts cut points at which the volatile disk write cache
// held unflushed blocks — the cases proving the durability model tolerates
// dropped cache contents.
func (r *report) cacheDropCuts() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.WCacheDirty > 0 {
			n++
		}
	}
	return n
}

// planCuts spreads perPhase cut events evenly across each workload
// phase's media-write span. It refuses to plan a thinner matrix than
// asked for: a phase too short for perPhase distinct events is an error,
// not a silent reduction.
func planCuts(phases []phaseSpan, perPhase int) ([]cutPoint, error) {
	if perPhase < 1 {
		return nil, fmt.Errorf("crash: perPhase %d < 1", perPhase)
	}
	var cuts []cutPoint
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
			cuts = append(cuts, cutPoint{Phase: span.Phase, Event: ev})
		}
	}
	return cuts, nil
}

// runMatrix executes the crash matrix: one pristine workload run to
// discover the phase spans, then one power cut per planned event, each
// recovered on a fresh kernel and audited. Deterministic per config.Seed:
// two runs yield identical outcomes (including digests).
func runMatrix(cfg config, perPhase int) (*report, error) {
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
	cuts, err := planCuts(pristine.Phases, perPhase)
	if err != nil {
		return nil, err
	}
	rep := &report{
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
		out, err := recoverCut(cfg, res.Snap)
		if err != nil {
			return nil, err
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep, nil
}
