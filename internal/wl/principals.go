package wl

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hsm"
	"repro/internal/sim"
)

// Per-principal HSM client generator: each principal is one closed-loop
// client submitting explicit stage-in / pin requests for its own working
// set through the HSM service surface, so quota enforcement and the
// quota-GC daemon see realistic multi-tenant pressure.

// PrincipalSpec describes one principal's request stream.
type PrincipalSpec struct {
	// Name is the accounting principal (e.g. "alice" or "astro:sim").
	Name string
	// Requests is how many HSM requests the principal issues.
	Requests int
	// MeanGap is the think time between requests.
	MeanGap sim.Time
	// Paths is the principal's working set; each request targets a
	// seeded-random member.
	Paths []string
	// PinEvery, when positive, turns every PinEvery-th request into a
	// Pin instead of a StageIn. The principal keeps at most MaxPins live
	// pins, unpinning the oldest first.
	PinEvery int
	// MaxPins bounds the principal's live pins (default 2).
	MaxPins int
	Seed    uint64
}

// PrincipalStats aggregates one principal's outcomes.
type PrincipalStats struct {
	Principal   string
	Submitted   int64
	Done        int64
	Failed      int64
	QuotaShed   int64 // admission sheds with hsm.ErrQuotaExceeded
	BytesStaged int64 // bytes moved by the principal's completed requests
}

// RunPrincipals runs one closed-loop client per spec against the HSM
// service and blocks until all finish. Client procs spawn in spec order
// and all randomness is seeded, so runs are deterministic.
func RunPrincipals(p *sim.Proc, hs *hsm.Service, specs []PrincipalSpec) ([]PrincipalStats, error) {
	for i, spec := range specs {
		if spec.Name == "" || spec.Requests <= 0 || len(spec.Paths) == 0 {
			return nil, fmt.Errorf("wl: principal spec %d needs a name, requests, and paths", i)
		}
	}
	stats := make([]PrincipalStats, len(specs))
	k := p.Kernel()
	doneCount := 0
	allDone := k.NewCond("wl.principals")
	for si := range specs {
		spec := specs[si]
		st := &stats[si]
		st.Principal = spec.Name
		maxPins := spec.MaxPins
		if maxPins <= 0 {
			maxPins = 2
		}
		rng := sim.NewRNG(spec.Seed + uint64(si)*0x9e3779b97f4a7c15 + 1)
		k.Go(fmt.Sprintf("wl-principal-%s", spec.Name), func(cp *sim.Proc) {
			defer func() {
				doneCount++
				allDone.Broadcast()
			}()
			var pinned []string
			for i := 0; i < spec.Requests; i++ {
				if spec.MeanGap > 0 {
					cp.Sleep(spec.MeanGap)
				}
				path := spec.Paths[rng.Intn(len(spec.Paths))]
				op := hsm.OpStageIn
				if spec.PinEvery > 0 && (i+1)%spec.PinEvery == 0 && !slices.Contains(pinned, path) {
					op = hsm.OpPin
				}
				st.Submitted++
				r, err := hs.Submit(cp, op, path, spec.Name)
				switch {
				case err == nil:
					st.Done++
					st.BytesStaged += r.Bytes
					if op == hsm.OpPin {
						pinned = append(pinned, path)
					}
				case errors.Is(err, hsm.ErrQuotaExceeded):
					st.QuotaShed++
				default:
					st.Failed++
				}
				// Keep the live pin set bounded: release the oldest.
				for len(pinned) > maxPins {
					st.Submitted++
					if _, err := hs.Submit(cp, hsm.OpUnpin, pinned[0], spec.Name); err == nil {
						st.Done++
					} else {
						st.Failed++
					}
					pinned = pinned[1:]
				}
			}
		})
	}
	for doneCount < len(specs) {
		allDone.Wait(p)
	}
	return stats, nil
}
