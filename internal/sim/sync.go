package sim

// Synchronization primitives operating in virtual time. All of them must be
// used only from inside processes of the kernel they were created for.

// PopFront takes the oldest element off the FIFO queue q and returns it with
// the rest of the queue. It clears the popped slot, so the array keeps no
// popped proc or value reachable, and an emptied queue comes back as q[:0],
// so the next append reuses the array rather than growing a new one.
func PopFront[T any](q []T) (T, []T) {
	v := q[0]
	clear(q[:1])
	if len(q) == 1 {
		return v, q[:0]
	}
	return v, q[1:]
}

// Resource is a single server with a FIFO wait queue: disk arms, the SCSI
// bus, robot pickers. Acquire blocks (in virtual time) while another process
// holds the resource.
type Resource struct {
	k       *Kernel
	name    string
	owner   *Proc
	waiters []*Proc

	// Stats.
	waitTotal Time
	busySince Time
	busyTotal Time
}

// NewResource returns an idle resource. The name appears in deadlock
// diagnostics and statistics.
func (k *Kernel) NewResource(name string) *Resource {
	return &Resource{k: k, name: name}
}

// Acquire takes the resource, waiting in FIFO order if it is busy.
func (r *Resource) Acquire(p *Proc) {
	if r.owner == nil {
		r.owner = p
		r.busySince = r.k.now
		return
	}
	start := r.k.now
	r.waiters = append(r.waiters, p)
	p.suspend("acquire", r.name)
	r.waitTotal += r.k.now - start
}

// Release hands the resource to the longest-waiting process, if any.
func (r *Resource) Release(p *Proc) {
	if r.owner != p {
		panic("sim: Release of " + r.name + " by non-owner " + p.name)
	}
	r.busyTotal += r.k.now - r.busySince
	if len(r.waiters) == 0 {
		r.owner = nil
		return
	}
	next, rest := PopFront(r.waiters)
	r.waiters = rest
	r.owner = next
	r.busySince = r.k.now
	r.k.wake(next)
}

// Busy reports whether some process currently holds the resource.
func (r *Resource) Busy() bool { return r.owner != nil }

// Owner names the process holding the resource ("" when idle): whom a
// contended acquire is about to queue behind.
func (r *Resource) Owner() string {
	if r.owner == nil {
		return ""
	}
	return r.owner.name
}

// HeldBy reports whether p holds the resource.
func (r *Resource) HeldBy(p *Proc) bool { return r.owner == p }

// WaitTotal reports the cumulative virtual time processes spent waiting to
// acquire the resource.
func (r *Resource) WaitTotal() Time { return r.waitTotal }

// BusyTotal reports the cumulative virtual time the resource was held.
func (r *Resource) BusyTotal() Time {
	t := r.busyTotal
	if r.owner != nil {
		t += r.k.now - r.busySince
	}
	return t
}

// Acquires reports how many times the resource has been acquired.

// Cond is a condition variable in virtual time. Unlike sync.Cond there is no
// separate lock: only one process runs at a time, so checking the condition
// and calling Wait is atomic by construction.
type Cond struct {
	k       *Kernel
	name    string
	waiters []*Proc
}

// NewCond returns a condition variable.
func (k *Kernel) NewCond(name string) *Cond {
	return &Cond{k: k, name: name}
}

// Wait blocks until another process calls Signal or Broadcast. As with
// sync.Cond, callers must re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.suspend("wait", c.name)
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p, rest := PopFront(c.waiters)
	c.waiters = rest
	c.k.wake(p)
}

// Broadcast wakes every waiting process. The waiter list keeps its array
// for the next waits: waking a process only queues it, so nothing waits
// again before the loop ends.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.k.wake(p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Chan is a bounded FIFO channel in virtual time, used as the request queue
// between the file system, the service process, and the I/O process.
type Chan struct {
	k        *Kernel
	name     string
	capacity int
	buf      []interface{}
	notEmpty *Cond
	notFull  *Cond
}

// NewChan returns a channel with the given capacity. A capacity of 0 is
// rounded up to 1 (true rendezvous semantics are not needed by HighLight).
func (k *Kernel) NewChan(name string, capacity int) *Chan {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan{
		k:        k,
		name:     name,
		capacity: capacity,
		notEmpty: k.NewCond(name + ".notEmpty"),
		notFull:  k.NewCond(name + ".notFull"),
	}
}

// Send enqueues v, blocking while the channel is full.
func (c *Chan) Send(p *Proc, v interface{}) {
	for len(c.buf) >= c.capacity {
		c.notFull.Wait(p)
	}
	c.buf = append(c.buf, v)
	c.notEmpty.Signal()
}

// Recv dequeues the oldest value, blocking while the channel is empty.
func (c *Chan) Recv(p *Proc) interface{} {
	for len(c.buf) == 0 {
		c.notEmpty.Wait(p)
	}
	v, rest := PopFront(c.buf)
	c.buf = rest
	c.notFull.Signal()
	return v
}

// TryRecv dequeues a value without blocking.
func (c *Chan) TryRecv() (interface{}, bool) {
	if len(c.buf) == 0 {
		return nil, false
	}
	v, rest := PopFront(c.buf)
	c.buf = rest
	c.notFull.Signal()
	return v, true
}

// Len reports the number of queued values.
func (c *Chan) Len() int { return len(c.buf) }
