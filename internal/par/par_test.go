package par

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		hits := make([]int32, 37)
		for round := 0; round < 50; round++ {
			p.Run(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
		}
		for i, h := range hits {
			if h != 50 {
				t.Fatalf("workers=%d: shard %d ran %d times, want 50", workers, i, h)
			}
		}
		p.Close()
	}
}

func TestPoolShardPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		n := 101
		covered := 0
		prevHi := 0
		for i := 0; i < p.Workers(); i++ {
			lo, hi := p.Shard(n, i)
			if lo != prevHi {
				t.Fatalf("workers=%d: shard %d starts at %d, want %d", workers, i, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n || prevHi != n {
			t.Fatalf("workers=%d: shards cover %d of %d items", workers, covered, n)
		}
		p.Close()
	}
}

func TestPoolCloseDegradesInline(t *testing.T) {
	p := NewPool(4)
	p.Close()
	ran := 0
	p.Run(3, func(int) { ran++ })
	if ran != 3 || p.Workers() != 1 {
		t.Fatalf("closed pool: ran=%d workers=%d", ran, p.Workers())
	}
}

func TestPoolZeroAndNegativeWorkers(t *testing.T) {
	p := NewPool(0)
	if p.Workers() != 1 {
		t.Fatalf("workers=%d, want 1", p.Workers())
	}
	sum := 0
	p.Run(4, func(i int) { sum += i })
	if sum != 6 {
		t.Fatalf("inline run sum %d", sum)
	}
}

// BenchmarkPoolBarrier measures the per-phase dispatch cost and pins
// the zero-allocation property of Run.
func BenchmarkPoolBarrier(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	fn := func(int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(4, fn)
	}
}
