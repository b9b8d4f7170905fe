package tertiary

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/dev"
)

// Every hand-over by reference a disk sees in this package's tests — a
// fetched segment image adopted by a cache line, a staged line shared into
// its copy-out's image — is audited (dev.HandOvers): one that changes
// afterwards fails the run at its end.
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
