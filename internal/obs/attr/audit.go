package attr

import (
	"fmt"
	"unsafe"

	"repro/internal/sim"
)

// Verdicts recorded by the migrator, the staging mechanism, and the
// tertiary cleaner. Kept as constants so `hldump -why` never drifts
// from the recorders.
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
	VerdictShed     = "shed"     // request refused (queue full, retry budget, expired deadline)
	VerdictBrownout = "brownout" // graceful-degradation mode entered or left
)

// Input is one named policy input (heat, age, utilization, pressure)
// recorded with a decision.
type Input struct {
	Key string
	Val float64
}

// In is shorthand for building an Input.
func In(key string, val float64) Input { return Input{Key: key, Val: val} }

// Decision is one audited policy decision: who decided what about
// which subject, why, and from which inputs.
type Decision struct {
	T       sim.Time
	Actor   string
	Subject string
	// Seg is the tertiary segment index the decision is attributed to
	// (-1 when the decision is not segment-specific, e.g. a policy
	// ranking a file that was never migrated).
	Seg     int
	Verdict string
	Reason  string
	Inputs  []Input
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
// soak-length runs, while `hldump -why` still sees the recent history. The zero value is not usable; call NewAudit. A nil
// *Audit is valid everywhere and inert.
type Audit struct {
	cap    int
	chunks [][]Decision // the ring: auditChunk slots a chunk, added as it fills, so it never copies
	total  int64        // decisions ever recorded (including overwritten ones)
}

// defaultAuditCap bounds the ring: enough for several full migration
// passes on the paper-scale rig.
const defaultAuditCap = 8192

// auditChunk fits a chunk and the allocator's 8-byte header in 8 KB.
const auditChunk = (8<<10 - 8) / int(unsafe.Sizeof(Decision{}))

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
	i := int(a.total % int64(a.cap))
	if i/auditChunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Decision, min(auditChunk, a.cap-i)))
	}
	a.chunks[i/auditChunk][i%auditChunk] = d
	a.total++
}

// Total reports how many decisions were ever recorded.
func (a *Audit) Total() int64 {
	if a == nil {
		return 0
	}
	return a.total
}

// All returns the retained decisions, oldest first.
func (a *Audit) All() []Decision {
	if a == nil {
		return nil
	}
	out := make([]Decision, 0, min(a.total, int64(a.cap)))
	for i := max(0, a.total-int64(a.cap)); i < a.total; i++ {
		j := int(i % int64(a.cap))
		out = append(out, a.chunks[j/auditChunk][j%auditChunk])
	}
	return out
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
