package dump

import (
	"fmt"
	"io"

	"repro/internal/hsm"
)

// HSM service-surface reports for `hldump -requests/-pins/-quotas`: the
// request ledger, the active pin set, and per-principal quota standing.

// HSMRequests renders the request ledger, ID order.
func HSMRequests(w io.Writer, s *hsm.Service) {
	reqs := s.Requests()
	fmt.Fprintf(w, "HSM requests (%d total):\n", len(reqs))
	if len(reqs) == 0 {
		fmt.Fprintln(w, "  (none)")
		return
	}
	fmt.Fprintf(w, "  %4s %-10s %-18s %-10s %-7s %10s %10s  %s\n",
		"id", "op", "path", "principal", "state", "t_sub", "t_fin", "bytes/err")
	for _, r := range reqs {
		tail := fmt.Sprintf("%d", r.Bytes)
		if r.Err != "" {
			tail = r.Err
		}
		fin := "-"
		if r.State == hsm.Done || r.State == hsm.Failed {
			fin = fmt.Sprintf("%.2fs", r.Finished.Seconds())
		}
		fmt.Fprintf(w, "  %4d %-10s %-18s %-10s %-7s %9.2fs %10s  %s\n",
			r.ID, r.Op, r.Path, r.Principal, r.State, r.Submitted.Seconds(), fin, tail)
	}
}

// HSMPins renders the active pins, path order.
func HSMPins(w io.Writer, s *hsm.Service) {
	pins := s.Pins()
	fmt.Fprintf(w, "HSM pins (%d active):\n", len(pins))
	if len(pins) == 0 {
		fmt.Fprintln(w, "  (none)")
		return
	}
	fmt.Fprintf(w, "  %-18s %-10s %6s %10s %9s  %s\n", "path", "principal", "inum", "bytes", "pinned", "segments")
	for _, pin := range pins {
		fmt.Fprintf(w, "  %-18s %-10s %6d %10d %8.2fs  %v\n",
			pin.Path, pin.Principal, pin.Inum, pin.Bytes, pin.PinnedAt.Seconds(), pin.Segs)
	}
}

// HSMQuotas renders every principal's quota standing: usage against the
// soft/hard staged limits and the pinned-bytes limit.
func HSMQuotas(w io.Writer, s *hsm.Service) {
	principals := s.Principals()
	fmt.Fprintf(w, "HSM quotas (%d principals):\n", len(principals))
	if len(principals) == 0 {
		fmt.Fprintln(w, "  (none)")
		return
	}
	lim := func(v int64) string {
		if v <= 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s\n", "principal", "staged", "hard", "pinned", "pin-hard")
	for _, pr := range principals {
		q := s.QuotaOf(pr)
		staged, pinned := s.UsageOf(pr)
		fmt.Fprintf(w, "  %-10s %10d %10s %10d %10s\n", pr, staged, lim(q.StagedHard), pinned, lim(q.PinnedHard))
	}
}
