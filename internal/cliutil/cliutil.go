// Package cliutil holds shared command-line helpers for the hl* tools:
// a typed usage error and up-front validation of flag combinations no
// rig can satisfy, so a bad invocation fails with one clear message
// instead of a mid-run panic or a silently degenerate configuration.
package cliutil

import "fmt"

// usageError marks an invalid flag combination. CLIs print it and exit
// with the usage status (2) instead of treating it as a runtime failure.
type usageError struct{ Msg string }

func (e *usageError) Error() string { return e.Msg }

// usagef builds a usageError.
func usagef(format string, args ...interface{}) *usageError {
	return &usageError{Msg: fmt.Sprintf(format, args...)}
}

// ValidateFarm checks the disk-farm flags: striping needs at least two
// spindles to interleave, and rotating parity needs a stripe geometry
// plus at least three spindles (two data + one parity per row).
func ValidateFarm(spindles, stripeUnit int, parity bool) error {
	if spindles < 0 {
		return usagef("-spindles %d: must be >= 0", spindles)
	}
	if stripeUnit < 0 {
		return usagef("-stripe %d: must be >= 0", stripeUnit)
	}
	if stripeUnit > 0 && spindles < 2 {
		return usagef("-stripe %d needs at least 2 spindles (have %d)", stripeUnit, spindles)
	}
	if parity && stripeUnit <= 0 {
		return usagef("-parity needs -stripe (a stripe geometry to rotate parity over)")
	}
	if parity && spindles < 3 {
		return usagef("-parity needs at least 3 spindles (have %d): two data plus one parity per row", spindles)
	}
	return nil
}

// ValidateTertiary checks the replicated-tier flags: each staged
// segment's copies land in distinct libraries, so asking for more
// replicas than libraries cannot be satisfied.
func ValidateTertiary(libraries, replicas int) error {
	if libraries < 0 {
		return usagef("-libraries %d: must be >= 0", libraries)
	}
	if replicas < 0 {
		return usagef("-replicas %d: must be >= 0", replicas)
	}
	nlibs := libraries
	if nlibs < 1 {
		nlibs = 1
	}
	if replicas > nlibs {
		return usagef("-replicas %d exceeds -libraries %d: each replica needs its own library", replicas, nlibs)
	}
	return nil
}
