package svc_test

import _ "unsafe" // for go:linkname

// The buffer free lists of lfs and stripe overwrite every buffer returned
// to them with 0xDB while this package's tests run, so a block or transfer
// buffer used after its release corrupts data deterministically and the
// content, fsck and digest checks here catch it. The hooks are unexported
// test-only variables of those packages; nothing but test files sets them.

//go:linkname lfsPoisonFreed repro/internal/lfs.poisonFreed
var lfsPoisonFreed bool

//go:linkname stripePoisonFreed repro/internal/stripe.poisonFreed
var stripePoisonFreed bool

func init() { lfsPoisonFreed, stripePoisonFreed = true, true }
