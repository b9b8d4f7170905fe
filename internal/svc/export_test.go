package svc

// OnSlotChange installs a hook run after every change to the slot counters:
// requests holding a slot, the staging and background ones among them, and
// slots lent by parked requests.
func (fe *FrontEnd) OnSlotChange(f func(executing, background, lent int)) {
	fe.onSlot = func() { f(fe.exec, fe.execBG, fe.lent) }
}

// Cancel abandons r through its context, as an expired deadline does, but
// at a moment the test picks: a queued request is shed when a worker reaches
// it, a running one unwinds at its next cancellation point (cache miss,
// fetch wait, staging chunk boundary, jukebox entry).
func (r *Request) Cancel() { r.ctx.Cancel(nil) }

// Finished reports whether r reached a terminal state.
func (r *Request) Finished() bool { return r.finished }
