package attr

import (
	"fmt"

	"repro/internal/sim"
)

// Verdicts recorded by the migrator, the staging mechanism, and the
// tertiary cleaner. Kept as constants so `hldump -why` and the
// /decisions export never drift from the recorders.
const (
	VerdictSelected  = "selected"   // candidate chosen by a policy
	VerdictSkipped   = "skipped"    // candidate examined and passed over
	VerdictStaged    = "staged"     // blocks assembled into a staging segment
	VerdictCopiedOut = "copied-out" // staging segment reached tertiary media
	VerdictCleaned   = "cleaned"    // live blocks re-staged off the segment
	VerdictRestaged  = "restaged"   // contents moved after a failed copy-out
	VerdictRetired   = "retired"    // segment/volume tail marked no-store
	VerdictRun       = "run"        // one migrator/cleaner invocation summary
	VerdictPlaced    = "placed"     // replica assigned a tertiary location
	VerdictRouted    = "routed"     // fetch redirected to a non-primary copy
	VerdictRepaired  = "repaired"   // replication restored by the repair pass
	VerdictDeferred  = "deferred"   // repair postponed (no space / all down)
	VerdictLost      = "lost"       // no surviving copy remains

	// Front-end (admission control / overload protection) verdicts.
	VerdictAdmitted = "admitted" // request accepted into an admission queue
	VerdictShed     = "shed"     // request refused (queue full, retry budget, expired deadline)
	VerdictTripped  = "tripped"  // circuit breaker opened on consecutive failures
	VerdictProbed   = "probed"   // half-open breaker let one probe request through
	VerdictRestored = "restored" // breaker closed again after a successful probe
	VerdictBrownout = "brownout" // graceful-degradation mode entered or left

	// HSM service-surface verdicts (pin lifecycle, quota enforcement,
	// request-queue transitions).
	VerdictPinned    = "pinned"     // a file/segment entered the pinned set
	VerdictUnpinned  = "unpinned"   // a pin was released
	VerdictPinGuard  = "pin-guard"  // evictor/cleaner/migrator refused a pinned subject
	VerdictQuotaShed = "quota-shed" // request refused at admission: principal over quota
	VerdictReclaimed = "reclaimed"  // quota GC evicted staged data of an over-soft-limit principal
	VerdictQueued    = "queued"     // HSM request admitted into the ledger
	VerdictDone      = "done"       // HSM request completed
	VerdictFailed    = "failed"     // HSM request reached the failed state
)

// Input is one named policy input (heat, age, utilization, pressure)
// recorded with a decision.
type Input struct {
	Key string  `json:"key"`
	Val float64 `json:"val"`
}

// In is shorthand for building an Input.
func In(key string, val float64) Input { return Input{Key: key, Val: val} }

// Decision is one audited policy decision: who decided what about
// which subject, why, and from which inputs.
type Decision struct {
	T       sim.Time `json:"-"`
	Seconds float64  `json:"t_s"` // T in seconds, for exports
	Actor   string   `json:"actor"`
	Subject string   `json:"subject"`
	// Seg is the tertiary segment index the decision is attributed to
	// (-1 when the decision is not segment-specific, e.g. a policy
	// ranking a file that was never migrated).
	Seg     int     `json:"seg"`
	Verdict string  `json:"verdict"`
	Reason  string  `json:"reason,omitempty"`
	Inputs  []Input `json:"inputs,omitempty"`
}

// String renders a decision as one audit-log line.
func (d Decision) String() string {
	s := fmt.Sprintf("[%9.3fs] %-10s %-18s %-10s", d.T.Seconds(), d.Actor, d.Subject, d.Verdict)
	if d.Reason != "" {
		s += " (" + d.Reason + ")"
	}
	for _, in := range d.Inputs {
		s += fmt.Sprintf(" %s=%.6g", in.Key, in.Val)
	}
	return s
}

// Audit is a bounded ring of decisions: cheap enough to leave on for
// soak-length runs, while `hldump -why` and /decisions still see the
// recent history. The zero value is not usable; call NewAudit. A nil
// *Audit is valid everywhere and inert.
type Audit struct {
	cap   int
	buf   []Decision
	start int   // index of the oldest entry
	total int64 // decisions ever recorded (including overwritten ones)
}

// defaultAuditCap bounds the ring: enough for several full migration
// passes on the paper-scale rig.
const defaultAuditCap = 8192

// NewAudit creates a decision log keeping the last max entries
// (defaultAuditCap if max <= 0).
func NewAudit(max int) *Audit {
	if max <= 0 {
		max = defaultAuditCap
	}
	return &Audit{cap: max}
}

// Record appends a decision, evicting the oldest entry when full.
func (a *Audit) Record(d Decision) {
	if a == nil {
		return
	}
	d.Seconds = d.T.Seconds()
	a.total++
	if len(a.buf) < a.cap {
		a.buf = append(a.buf, d)
		return
	}
	a.buf[a.start] = d
	a.start = (a.start + 1) % a.cap
}

// Total reports how many decisions were ever recorded.
func (a *Audit) Total() int64 {
	if a == nil {
		return 0
	}
	return a.total
}

// Len reports how many decisions are retained.
func (a *Audit) Len() int {
	if a == nil {
		return 0
	}
	return len(a.buf)
}

// All returns the retained decisions, oldest first.
func (a *Audit) All() []Decision {
	if a == nil {
		return nil
	}
	out := make([]Decision, 0, len(a.buf))
	for i := 0; i < len(a.buf); i++ {
		out = append(out, a.buf[(a.start+i)%len(a.buf)])
	}
	return out
}

// Recent returns the newest n retained decisions, oldest first.
func (a *Audit) Recent(n int) []Decision {
	all := a.All()
	if n < len(all) {
		all = all[len(all)-n:]
	}
	return all
}

// ForSegment returns the retained decisions attributed to tertiary
// segment tag, oldest first — the `hldump -why` chain.
func (a *Audit) ForSegment(tag int) []Decision {
	var out []Decision
	for _, d := range a.All() {
		if d.Seg == tag {
			out = append(out, d)
		}
	}
	return out
}
