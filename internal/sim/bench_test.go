package sim

import (
	"testing"
	"time"
)

// Kernel micro-benchmarks (make bench-layers): host cost per operation of
// the dispatch paths the layers above lean on. One op is named in each.

// BenchmarkSleepSelfWake: one Sleep of a proc alone in the kernel — the
// single-proc workloads' every device delay.
func BenchmarkSleepSelfWake(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	k.RunProc(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

// BenchmarkCondPingPong: one round trip between two procs over a pair of
// condition variables (two wake-ups, two switches) — a request handed to a
// service proc and its reply.
func BenchmarkCondPingPong(b *testing.B) {
	k := NewKernel()
	ping, pong := k.NewCond("ping"), k.NewCond("pong")
	b.ReportAllocs()
	k.GoDaemon("echo", func(p *Proc) {
		for {
			ping.Wait(p)
			pong.Broadcast()
		}
	})
	k.RunProc(func(p *Proc) {
		p.Sleep(0) // let echo reach its first Wait
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Broadcast()
			pong.Wait(p)
		}
	})
	k.Stop()
}

// BenchmarkResourceHandoff: one acquire, hold and release of a Resource
// four procs contend for, so every release hands it to a waiter — a disk
// arm under load.
func BenchmarkResourceHandoff(b *testing.B) {
	k := NewKernel()
	r := k.NewResource("arm")
	b.ReportAllocs()
	for w := 0; w < 4; w++ {
		n := b.N / 4
		if w == 0 {
			n += b.N % 4
		}
		k.Go("contender", func(p *Proc) {
			for i := 0; i < n; i++ {
				r.Acquire(p)
				p.Sleep(time.Microsecond)
				r.Release(p)
			}
		})
	}
	k.Run()
}

// BenchmarkSpawnJoin4: spawn four one-sleep procs and join them on a
// condition variable — the stripe farm's fan-out for one request.
func BenchmarkSpawnJoin4(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	k.RunProc(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			fanOut4(k, p)
		}
	})
	k.Stop()
}
