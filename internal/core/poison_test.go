package core

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // for go:linkname

	"repro/internal/dev"
)

// The buffer free lists of lfs and stripe overwrite every buffer returned
// to them with 0xDB while this package's tests run, so a block or transfer
// buffer used after its release corrupts data deterministically and the
// content, fsck and digest checks here catch it. The hooks are unexported
// test-only variables of those packages; nothing but test files sets them.
// And every hand-over by reference a disk sees — a staged line kept, a
// fetched segment adopted, a copy-out's line shared, a view lent to the
// file system — is audited (dev.HandOvers): one that changes afterwards
// fails the run at its end.

//go:linkname lfsPoisonFreed repro/internal/lfs.poisonFreed
var lfsPoisonFreed bool

//go:linkname stripePoisonFreed repro/internal/stripe.poisonFreed
var stripePoisonFreed bool

func init() {
	lfsPoisonFreed, stripePoisonFreed = true, true
	dev.Audit = &dev.HandOvers{}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if err := dev.Audit.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "hand-over audit:", err)
		code = 1
	}
	os.Exit(code)
}
