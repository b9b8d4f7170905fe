package sim

// Synchronization primitives operating in virtual time. All of them must be
// used only from inside processes of the kernel they were created for.

// Queue is a FIFO ring, empty as the zero value. A pop clears the slot it
// empties and a later push reuses it, so a queue that never drains keeps one
// array; it grows only when every slot is full.
type Queue[T any] struct {
	ring []T
	head int // index of the oldest value
	n    int // values queued
}

// Push adds v at the back of the queue.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.ring) {
		ring := make([]T, max(1, 2*len(q.ring)))
		copy(ring[copy(ring, q.ring[q.head:]):], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = v
	q.n++
}

// Pop takes the oldest value off the queue, which must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.ring[q.head]
	clear(q.ring[q.head : q.head+1])
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return v
}

// Len reports how many values are queued.
func (q *Queue[T]) Len() int { return q.n }

// Resource is a single server with a FIFO wait queue: disk arms, the SCSI
// bus, robot pickers. Acquire blocks (in virtual time) while another process
// holds the resource.
type Resource struct {
	k       *Kernel
	name    string
	owner   *Proc
	waiters Queue[*Proc]

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
	r.waiters.Push(p)
	p.suspend("acquire", r.name)
	r.waitTotal += r.k.now - start
}

// Release hands the resource to the longest-waiting process, if any.
func (r *Resource) Release(p *Proc) {
	if r.owner != p {
		panic("sim: Release of " + r.name + " by non-owner " + p.name)
	}
	r.busyTotal += r.k.now - r.busySince
	if r.waiters.Len() == 0 {
		r.owner = nil
		return
	}
	next := r.waiters.Pop()
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
	waiters Queue[*Proc]
}

// NewCond returns a condition variable.
func (k *Kernel) NewCond(name string) *Cond {
	return &Cond{k: k, name: name}
}

// Wait blocks until another process calls Broadcast. As with sync.Cond,
// callers must re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters.Push(p)
	p.suspend("wait", c.name)
}

// wakeOne wakes the longest-waiting process, if any: a channel's send or
// receive makes room for one.
func (c *Cond) wakeOne() {
	if c.waiters.Len() > 0 {
		c.k.wake(c.waiters.Pop())
	}
}

// Broadcast wakes every waiting process, oldest first. Waking a process
// only queues it, so nothing waits again before the loop ends.
func (c *Cond) Broadcast() {
	for c.waiters.Len() > 0 {
		c.k.wake(c.waiters.Pop())
	}
}

// Chan is a bounded FIFO channel of T (unboxed) in virtual time, the request
// queue between the file system, the service process, and the I/O process.
type Chan[T any] struct {
	name     string
	capacity int
	buf      Queue[T]
	notEmpty *Cond
	notFull  *Cond
}

// NewChan returns a channel of T on k with the given capacity. A capacity of 0
// is rounded up to 1 (true rendezvous semantics are not needed by HighLight).
func NewChan[T any](k *Kernel, name string, capacity int) *Chan[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan[T]{
		name:     name,
		capacity: capacity,
		notEmpty: k.NewCond(name + ".notEmpty"),
		notFull:  k.NewCond(name + ".notFull"),
	}
}

// Send enqueues v, blocking while the channel is full.
func (c *Chan[T]) Send(p *Proc, v T) {
	for !c.TrySend(v) {
		c.notFull.Wait(p)
	}
}

// TrySend enqueues v if the channel has room and reports whether it did; it
// never blocks.
func (c *Chan[T]) TrySend(v T) bool {
	if c.buf.Len() >= c.capacity {
		return false
	}
	c.buf.Push(v)
	c.notEmpty.wakeOne()
	return true
}

// Recv dequeues the oldest value, blocking while the channel is empty.
func (c *Chan[T]) Recv(p *Proc) T {
	for c.buf.Len() == 0 {
		c.notEmpty.Wait(p)
	}
	v := c.buf.Pop()
	c.notFull.wakeOne()
	return v
}

// Len reports the number of queued values.
func (c *Chan[T]) Len() int { return c.buf.Len() }
