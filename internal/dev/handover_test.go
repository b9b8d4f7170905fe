package dev

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Every hand-over by reference is audited while this package's tests run
// (HandOvers): a kept or shared extent, a pending XOR's sources or a lent
// view that changes afterwards fails the run, at the end if no test looked
// sooner.
func init() { Audit = &HandOvers{} }

func TestMain(m *testing.M) {
	code := m.Run()
	if err := Audit.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "hand-over audit:", err)
		code = 1
	}
	os.Exit(code)
}

// TestHandOversNameTheSiteAndBlock: the audit reports a recorded buffer
// written afterwards by the site that handed it over and its first block
// that changed, keeps a buffer's first record, and ignores what nobody
// recorded.
func TestHandOversNameTheSiteAndBlock(t *testing.T) {
	var h HandOvers
	a, b := make([]byte, 3*BlockSize), make([]byte, BlockSize)
	h.Record("first", a)
	h.Record("again", a)
	h.Record("view", a[BlockSize:2*BlockSize])
	b[0] = 1 // never recorded
	if err := h.Check(); err != nil {
		t.Fatalf("nothing changed: %v", err)
	}
	a[2*BlockSize+5] = 1
	err := h.Check()
	if err == nil || !strings.Contains(err.Error(), "by first") || !strings.Contains(err.Error(), "block 2 of 3") {
		t.Fatalf("a write into block 2: %v", err)
	}
	a[2*BlockSize+5], a[BlockSize] = 0, 1
	if err := h.Check(); err == nil || !strings.Contains(err.Error(), "by first changed after the hand-over, block 1 of 3") {
		t.Fatalf("a write into block 1: %v", err)
	}
	var off *HandOvers
	off.Record("off", a)
	if err := off.Check(); err != nil {
		t.Fatalf("an audit that is off: %v", err)
	}
}
