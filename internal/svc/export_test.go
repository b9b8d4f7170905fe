package svc

// OnSlotChange installs a hook run after every change to the slot counters:
// requests holding a slot, the staging and background ones among them, and
// slots lent by parked requests.
func (fe *FrontEnd) OnSlotChange(f func(executing, background, lent int)) {
	fe.onSlot = func() { f(fe.exec, fe.execBG, fe.lent) }
}
