package wl

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/svc"
)

// Multi-client request generator for the overload experiments: N closed-
// loop clients submit reads through the admission-controlled front end,
// with configurable arrival processes (think-time, Poisson, bursty),
// per-request deadlines, and budgeted retries after sheds.

// Arrival selects the inter-request gap process of one client.
type Arrival int

const (
	// arrivalClosed sleeps a fixed think time (MeanGap) between requests.
	arrivalClosed Arrival = iota
	// ArrivalPoisson draws exponential gaps with mean MeanGap.
	ArrivalPoisson
	// ArrivalBursty issues BurstLen requests back to back, then sleeps
	// MeanGap×BurstLen — same average rate as arrivalClosed, far worse
	// instantaneous load.
	ArrivalBursty
)

// ParseArrival maps CLI spellings to Arrival values.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "", "closed":
		return arrivalClosed, nil
	case "poisson":
		return ArrivalPoisson, nil
	case "bursty":
		return ArrivalBursty, nil
	}
	return 0, fmt.Errorf("wl: unknown arrival process %q (closed|poisson|bursty)", s)
}

func (a Arrival) String() string {
	switch a {
	case arrivalClosed:
		return "closed"
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	}
	return "unknown"
}

// ClientSpec parameterizes the generator.
type ClientSpec struct {
	Clients           int
	RequestsPerClient int
	Arrival           Arrival
	// MeanGap is the think time (closed), mean inter-arrival (Poisson),
	// or per-request budget of the burst duty cycle (bursty).
	MeanGap sim.Time
	// BurstLen is the burst length for ArrivalBursty (default 8).
	BurstLen int
	// Deadline, when positive, is the relative virtual-time deadline
	// attached to every request.
	Deadline sim.Time
	// ReadBlocks is how many 4 KB blocks each request reads (default 1).
	ReadBlocks int
	// Class is the admission class requests are submitted under
	// (default Interactive).
	Class svc.Class
	// RetryBackoff is the sleep before a budgeted retry of a shed
	// request (default MeanGap/2, floor 1 ms).
	RetryBackoff sim.Time
	Seed         uint64
}

// ClientStats aggregates what happened across all clients.
type ClientStats struct {
	Submitted int64 // submissions, including retries
	Completed int64 // requests that finished successfully
	Shed      int64 // ErrOverload rejections (pre-queue)
	Expired   int64 // deadline/cancel failures (queued or running)
	Failed    int64 // other errors
	Retries   int64 // budgeted resubmissions after a shed
}

// Goodput is the fraction of distinct requests that completed.
func (s ClientStats) Goodput() float64 {
	distinct := s.Submitted - s.Retries
	if distinct == 0 {
		return 0
	}
	return float64(s.Completed) / float64(distinct)
}

// RunClients runs spec.Clients concurrent closed-loop clients against the
// front end, each issuing reads of random files from paths, and blocks
// until every client finishes. Client procs are spawned in a fixed order
// and all randomness is seeded, so runs are deterministic.
func RunClients(p *sim.Proc, fe *svc.FrontEnd, hl *core.HighLight, paths []string, spec ClientSpec) (ClientStats, error) {
	if spec.Clients <= 0 || spec.RequestsPerClient <= 0 {
		return ClientStats{}, fmt.Errorf("wl: need at least one client and one request")
	}
	if len(paths) == 0 {
		return ClientStats{}, fmt.Errorf("wl: no paths to read")
	}
	if spec.BurstLen <= 0 {
		spec.BurstLen = 8
	}
	if spec.ReadBlocks <= 0 {
		spec.ReadBlocks = 1
	}
	if spec.RetryBackoff <= 0 {
		spec.RetryBackoff = spec.MeanGap / 2
		if spec.RetryBackoff < sim.Time(1e6) {
			spec.RetryBackoff = sim.Time(1e6)
		}
	}

	var stats ClientStats
	k := p.Kernel()
	doneCount := 0
	allDone := k.NewCond("wl.clients")
	for ci := 0; ci < spec.Clients; ci++ {
		rng := sim.NewRNG(spec.Seed + uint64(ci)*0x9e3779b97f4a7c15 + 1)
		k.Go(fmt.Sprintf("wl-client-%d", ci), func(cp *sim.Proc) {
			defer func() {
				doneCount++
				allDone.Broadcast()
			}()
			for i := 0; i < spec.RequestsPerClient; i++ {
				if gap := spec.gap(rng, i); gap > 0 {
					cp.Sleep(gap)
				}
				path := paths[rng.Intn(len(paths))]
				err := submitRead(cp, fe, hl, path, spec)
				if errors.Is(err, svc.ErrOverload) && fe.AllowRetry() {
					stats.Submitted++
					stats.Retries++
					cp.Sleep(spec.RetryBackoff)
					err = submitRead(cp, fe, hl, path, spec)
				}
				stats.Submitted++
				switch {
				case err == nil:
					stats.Completed++
				case errors.Is(err, svc.ErrOverload):
					stats.Shed++
				case errors.Is(err, sim.ErrDeadlineExceeded) || errors.Is(err, sim.ErrCanceled):
					stats.Expired++
				default:
					stats.Failed++
				}
			}
		})
	}
	for doneCount < spec.Clients {
		allDone.Wait(p)
	}
	return stats, nil
}

// gap returns the virtual-time pause before a client's i-th request.
func (spec *ClientSpec) gap(rng *sim.RNG, i int) sim.Time {
	switch spec.Arrival {
	case ArrivalPoisson:
		// Exponential inter-arrival: −mean·ln(U), U ∈ (0,1].
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		return sim.Time(-float64(spec.MeanGap) * math.Log(u))
	case ArrivalBursty:
		if i%spec.BurstLen == 0 && i > 0 {
			return spec.MeanGap * sim.Time(spec.BurstLen)
		}
		return 0
	default:
		return spec.MeanGap
	}
}

// submitRead issues one admission-controlled read of path.
func submitRead(cp *sim.Proc, fe *svc.FrontEnd, hl *core.HighLight, path string, spec ClientSpec) error {
	var deadline sim.Time
	if spec.Deadline > 0 {
		deadline = cp.Now() + spec.Deadline
	}
	return fe.Submit(cp, spec.Class, deadline, func(wp *sim.Proc) error {
		f, err := hl.FS.Open(wp, path)
		if err != nil {
			return err
		}
		buf := make([]byte, spec.ReadBlocks*lfs.BlockSize)
		if _, err := f.ReadAt(wp, buf, 0); err != nil && err != io.EOF {
			return err
		}
		return nil
	})
}
