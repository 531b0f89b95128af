// Package par provides the persistent worker pool behind the sharded
// simulation phases. A Pool owns a fixed set of goroutines that stay
// alive across rounds, so a phase barrier costs two channel hops per
// worker instead of a goroutine spawn, and — crucially for the
// steady-state allocation budget — dispatching a phase allocates
// nothing: jobs are plain values on a buffered channel and the
// completion barrier reuses one WaitGroup.
//
// Determinism contract: Run gives every shard index to exactly one
// worker and blocks until all shards finish. Callers keep results
// deterministic by having each shard write only shard-owned state (or
// commutative atomics) and by merging cross-shard results in a
// canonical order afterwards.
package par

import "sync"

// job is one shard of a phase.
type job struct {
	fn  func(int)
	idx int
	wg  *sync.WaitGroup
}

// Pool is a fixed-size persistent worker pool. The zero value is not
// usable; construct with NewPool. A Pool with one worker runs
// everything inline on the caller's goroutine (no channels, no
// goroutines), which is also the fallback after Close.
type Pool struct {
	workers int
	jobs    chan job
	wg      sync.WaitGroup // reused across Run calls; Run is not reentrant
}

// NewPool returns a pool that executes phases on `workers` logical
// workers. workers < 1 is treated as 1. For workers > 1 the pool spawns
// workers−1 background goroutines; the caller's goroutine acts as the
// final worker during Run, so an idle pool holds no runnable work.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.jobs = make(chan job, workers)
		for i := 0; i < workers-1; i++ {
			go worker(p.jobs)
		}
	}
	return p
}

// worker takes the channel as a parameter so a later Close (which
// nils the field) never races with the drain loop.
func worker(jobs <-chan job) {
	for j := range jobs {
		j.fn(j.idx)
		j.wg.Done()
	}
}

// Workers returns the pool's worker count (≥ 1).
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(0), fn(1), …, fn(n−1) across the pool and returns
// once every call has completed — one phase barrier. The caller's
// goroutine runs shard 0 (and everything, inline in index order, for a
// single-worker pool). Run must not be called concurrently with itself
// or after Close.
func (p *Pool) Run(n int, fn func(int)) {
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		p.jobs <- job{fn: fn, idx: i, wg: &p.wg}
	}
	fn(0)
	p.wg.Wait()
}

// Close shuts the background workers down. The pool must be idle.
// After Close, Run degrades to inline execution.
func (p *Pool) Close() {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
		p.workers = 1
	}
}

// Shard returns the half-open range [lo, hi) of the i-th of p.Workers()
// contiguous shards over n items: the canonical resource partition used
// by every sharded phase, so shard boundaries agree across packages.
func (p *Pool) Shard(n, i int) (lo, hi int) {
	w := p.workers
	return i * n / w, (i + 1) * n / w
}
