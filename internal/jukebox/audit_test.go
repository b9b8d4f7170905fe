package jukebox

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dev"
)

// Every image this package's tests hand over by reference — a buffer
// AdoptSegment keeps as the medium's segment, an image LendSegment lends — is
// audited (dev.HandOvers): one that changes afterwards fails the run at its
// end.
func init() {
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
