package sim

import (
	"testing"
	"time"
)

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("arm")
	var active, maxActive int
	worker := func(p *Proc) {
		r.Acquire(p)
		active++
		if active > maxActive {
			maxActive = active
		}
		p.Sleep(time.Second)
		active--
		r.Release(p)
	}
	for i := 0; i < 5; i++ {
		k.Go("w", worker)
	}
	k.Run()
	if maxActive != 1 {
		t.Fatalf("maxActive = %d, want 1", maxActive)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("5 serialized 1s holds took %v, want 5s", k.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("arm")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
			r.Release(p)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want FIFO", i, v)
		}
	}
}

// Owner names the holder through a hand-off and is empty when idle; HeldBy
// knows the holder from everybody else.
func TestResourceOwner(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("lock")
	var seen []string
	for _, name := range []string{"first", "second"} {
		k.Go(name, func(p *Proc) {
			seen = append(seen, r.Owner())
			r.Acquire(p)
			if !r.HeldBy(p) || r.HeldBy(nil) {
				t.Errorf("%s acquired, yet HeldBy says %v (and %v for nobody)", name, r.HeldBy(p), r.HeldBy(nil))
			}
			p.Sleep(time.Millisecond)
			r.Release(p)
		})
	}
	k.Run()
	if len(seen) != 2 || seen[0] != "" || seen[1] != "first" || r.Owner() != "" {
		t.Fatalf("owners seen before acquiring %q, at rest %q", seen, r.Owner())
	}
}

func TestResourceStats(t *testing.T) {
	k := NewKernel()
	r := k.NewResource("bus")
	k.Go("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(2 * time.Second)
		r.Release(p)
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		r.Acquire(p)
		p.Sleep(time.Second)
		r.Release(p)
	})
	k.Run()
	if got := r.BusyTotal(); got != 3*time.Second {
		t.Fatalf("BusyTotal = %v, want 3s", got)
	}
	if got := r.WaitTotal(); got != time.Second {
		t.Fatalf("WaitTotal = %v, want 1s (b waited 1s)", got)
	}
}

func TestReleaseByNonOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on release by non-owner")
		}
	}()
	k := NewKernel()
	r := k.NewResource("arm")
	k.RunProc(func(p *Proc) {
		r.Release(p)
	})
}

func TestChanFIFO(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "q", 16)
	var got []int
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			ch.Send(p, i)
			p.Sleep(time.Millisecond)
		}
	})
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	k.Run()
	if len(got) != 10 {
		t.Fatalf("received %d values, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestChanBlocksWhenFull(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, "q", 2)
	var sendDone Time
	k.Go("producer", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Send(p, 3) // must block until consumer drains one
		sendDone = p.Now()
	})
	k.Go("consumer", func(p *Proc) {
		p.Sleep(time.Second)
		if v := ch.Recv(p); v != 1 {
			t.Errorf("recv = %v, want 1", v)
		}
	})
	k.Run()
	if sendDone != time.Second {
		t.Fatalf("third send completed at %v, want 1s (after consumer drained)", sendDone)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestQueuesKeepTheirArrays: a Cond, a Resource and a Chan handed back and
// forth between two procs reuse their queues' arrays (no allocation per
// round trip), and so do a Resource four procs contend for and a Chan that
// always holds a value: queues that never drain. No slot a pop emptied
// still holds a proc or a value.
func TestQueuesKeepTheirArrays(t *testing.T) {
	k := NewKernel()
	ping, pong := k.NewCond("ping"), k.NewCond("pong")
	arm, busy := k.NewResource("arm"), k.NewResource("busy")
	req, rep := NewChan[*int](k, "req", 1), NewChan[*int](k, "rep", 1)
	backlog := NewChan[*int](k, "backlog", 2)
	k.GoDaemon("echo", func(p *Proc) {
		for {
			ping.Wait(p)
			pong.Broadcast()
		}
	})
	for _, r := range []*Resource{arm, busy, busy, busy} {
		k.GoDaemon("contender", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Sleep(time.Microsecond)
				r.Release(p)
			}
		})
	}
	k.GoDaemon("server", func(p *Proc) {
		for {
			rep.Send(p, req.Recv(p))
		}
	})
	v := new(int)
	k.RunProc(func(p *Proc) {
		p.Sleep(0) // let the daemons reach their first wait
		backlog.Send(p, v)
		for name, round := range map[string]func(){
			"cond":     func() { ping.Broadcast(); pong.Wait(p) },
			"resource": func() { arm.Acquire(p); p.Sleep(time.Microsecond); arm.Release(p) },
			"chan":     func() { req.Send(p, v); rep.Recv(p) },
			// Sixteen hand-offs a round: a queue that slides its slice
			// grows a new array every few pops, and AllocsPerRun rounds
			// down.
			"resource never drained": func() {
				for range 16 {
					busy.Acquire(p)
					p.Sleep(time.Microsecond)
					busy.Release(p)
				}
			},
			"chan never drained": func() {
				for range 16 {
					backlog.Send(p, v)
					backlog.Recv(p)
				}
			},
		} {
			if n := testing.AllocsPerRun(100, round); n != 0 {
				t.Errorf("%s: %v allocations per round trip, want 0", name, n)
			}
		}
	})
	for name, q := range map[string]*Queue[*Proc]{
		"ping": &ping.waiters, "pong": &pong.waiters, "arm": &arm.waiters, "busy": &busy.waiters,
		"req.notEmpty": &req.notEmpty.waiters, "rep.notEmpty": &rep.notEmpty.waiters,
	} {
		if poppedSlotsHold(q) {
			t.Errorf("%s: a popped slot of the queue's array still holds its proc", name)
		}
	}
	for name, q := range map[string]*Queue[*int]{"req": &req.buf, "rep": &rep.buf, "backlog": &backlog.buf} {
		if poppedSlotsHold(q) {
			t.Errorf("%s: a popped slot of the queue's array still holds its value", name)
		}
	}
	k.Stop()
}

// poppedSlotsHold reports whether a slot of q's ring outside its queued
// values holds anything.
func poppedSlotsHold[T comparable](q *Queue[T]) bool {
	var zero T
	for i := q.n; i < len(q.ring); i++ {
		if q.ring[(q.head+i)%len(q.ring)] != zero {
			return true
		}
	}
	return false
}

// TestQueueOrder: a Queue pops in push order across its ring's wrap and
// its growth.
func TestQueueOrder(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 1; round <= 20; round++ {
		for range round {
			q.Push(next)
			next++
		}
		for range round/2 + 1 {
			if got := q.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}
