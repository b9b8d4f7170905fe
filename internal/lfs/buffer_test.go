package lfs

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// faults reports whether fn panics.
func faults(fn func()) (fault bool) {
	defer func() { fault = recover() != nil }()
	fn()
	return false
}

// TestDroppedHeaderWaitsForTheRelease: a *buf held across a step of the
// same operation that drops it faults, and so does a ptrRef through it; its
// header is poisoned (poison_test.go), and no insert of that operation gets
// it or any other header the operation dropped. The first inserts after the
// release get exactly the headers the operation dropped, the held one among
// them.
func TestDroppedHeaderWaitsForTheRelease(t *testing.T) {
	env := newEnv(t, 64, 32, Options{})
	env.run(t, func(p *sim.Proc) {
		fs := env.fs
		cached := int32(fs.opts.BufferBytes / BlockSize)
		insert := func(lbn int32) *buf {
			return fs.insertBuf(7, lbn, fs.newZeroBlock(), addr.NilBlock, false)
		}
		fs.lock.Acquire(p)
		seen := map[*buf]bool{} // every header the operation saw in the cache
		for _, b := range fs.bufs {
			seen[b] = true
		}
		held := insert(0)
		seen[held] = true
		for lbn := int32(1); lbn < 4*cached; lbn++ {
			b := insert(lbn)
			if seen[b] {
				t.Fatalf("insert %d got a header the operation dropped", lbn)
			}
			seen[b] = true
		}
		if !faults(func() { _ = held.data[0] }) || !faults(func() { ptrRef{parent: held, slot: 1}.get() }) {
			t.Fatal("a *buf dropped in this operation does not fault")
		}
		if held.key != (bufKey{0xDBDBDBDB, -0x24242425}) || held.addr != 0xDBDBDBDB {
			t.Fatalf("dropped header not poisoned: key %v, addr %v", held.key, held.addr)
		}
		dropped := map[*buf]bool{}
		for b := range seen {
			if b.data == nil {
				dropped[b] = true
			}
		}
		fs.unlock(p)

		fs.lock.Acquire(p)
		defer fs.unlock(p)
		n, reused := len(dropped), false
		for i := 0; i < n; i++ {
			b := insert(4*cached + int32(i))
			if !dropped[b] {
				t.Fatalf("insert %d after the release did not reuse one of the %d headers dropped before it", i, n)
			}
			delete(dropped, b)
			reused = reused || b == held
		}
		if !reused {
			t.Fatal("the held header was not reused after the release")
		}
	})
}
