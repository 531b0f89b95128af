package main

import (
	"runtime"
	"time"

	lb "repro"
	"repro/internal/graph"
	"repro/internal/rng"
)

// pairsPerOp is the instance pairs one op solves: a ~70 ms op evens out
// the host's short bursts of contention that single ~25 ms pairs
// showed in their tail, and a 20 s run still times ~250 ops.
const pairsPerOp = 3

// staticSpec sizes the paper-static workload.
type staticSpec struct {
	n        int // resources of both graphs
	units    int // unit-weight tasks
	heavy    float64
	setups   int
	fixedSet int // instance pairs whose totals give core.solve_s and core.balance_rounds
}

func staticSpecFor(toy bool) staticSpec {
	if toy {
		return staticSpec{n: 100, units: 951, heavy: 50, setups: 2, fixedSet: 4}
	}
	// W = 9,950 + 50 = 10⁴.
	return staticSpec{n: 1000, units: 9950, heavy: 50, setups: 5, fixedSet: 40}
}

// staticWorkload: paper-static. The paper's closed system through the
// public Scenario.Run: W = 10⁴ in 9,951 tasks (one of weight 50), all
// starting on resource 0, ε = 0.2, a fresh seed per instance. An
// instance pair is user-controlled on K_1000 (Figure 1), then
// resource-controlled with the lazy max-degree walk on a 1000-node
// 16-regular expander (Theorem 3); one op solves pairsPerOp pairs and
// is timed in process CPU time.
// Every run must end balanced.
func staticWorkload(b *bench) error {
	ss := staticSpecFor(b.toy)
	root := b.spans.begin("static", 0)
	defer b.spans.end(root)

	var complete, expander *graph.Graph
	setup, err := timeSetups(b.cal, ss.setups, func(int) error {
		sid := b.spans.begin("setup", root)
		gid := b.spans.begin("graph.build", sid)
		complete = graph.Complete(ss.n)
		expander = graph.RandomRegular(ss.n, 16, rng.NewSeeded(subSeed(b.seed, streamGraph)))
		b.spans.end(gid)
		b.spans.end(sid)
		return nil
	})
	if err != nil {
		return err
	}
	b.e2e["setup_s"] = setup
	b.layer["graph.build_s"] = median(b.spans.durations("graph.build")) / 1e3
	runtime.GC() // the earlier set-ups' garbage, so the timed section does not pay for it
	heap := newHeapPeak()

	weights := make([]float64, ss.units+1)
	for i := range weights {
		weights[i] = 1
	}
	weights[ss.units] = ss.heavy
	seeds := rng.NewSeeded(subSeed(b.seed, streamInstances))
	settings := []lb.Scenario{
		{Graph: complete, Weights: weights, Epsilon: 0.2, Protocol: lb.UserBased},
		{Graph: expander, Weights: weights, Epsilon: 0.2, Protocol: lb.ResourceBased, LazyWalk: true},
	}

	var ops opTimes
	var user, resource, runs []float64
	var fixedSolve float64
	var pairs, fixedRounds, rounds, migrations int
	var moved float64
	deadline := time.Now().Add(b.seconds)
	for time.Now().Before(deadline) {
		c0 := cpuNow()
		for range pairsPerOp {
			for k, sc := range settings {
				sc.Seed = seeds.Uint64()
				start := time.Now()
				sid := b.spans.begin("core.scenario_run", root)
				res, err := sc.Run()
				b.spans.end(sid)
				d := ms(time.Since(start))
				if b.op(err) != nil {
					return err
				}
				b.check("static.balanced", res.Balanced, "%v instance with seed %d ended unbalanced after %d rounds",
					sc.Protocol, sc.Seed, res.Rounds)
				runs = append(runs, d)
				if k == 0 {
					user = append(user, d)
				} else {
					resource = append(resource, d)
				}
				rounds += res.Rounds
				migrations += int(res.Migrations)
				moved += res.MovedWeight
				if pairs < ss.fixedSet {
					fixedSolve += d / 1e3
					fixedRounds += res.Rounds
				}
			}
			pairs++
		}
		ops.add(ms(cpuNow()-c0), b.cal.measure())
	}

	// One more pair, untimed, probes the heap after each run's first
	// round, when its state is fully built.
	for _, sc := range settings {
		sc.Seed = seeds.Uint64()
		sc.OnRound = func(round int, _ []float64) {
			if round == 1 {
				heap.probe()
			}
		}
		res, err := sc.Run()
		if b.op(err) != nil {
			return err
		}
		b.check("static.balanced", res.Balanced, "%v instance with seed %d ended unbalanced after %d rounds",
			sc.Protocol, sc.Seed, res.Rounds)
	}

	b.e2e["heap_mb"] = heap.mib()
	ops.report(b)
	b.layer["core.solve_s"] = fixedSolve
	b.layer["core.balance_rounds"] = float64(fixedRounds)
	b.layer["core.run_ms_p50"] = median(runs)
	b.layer["core.run_ms_p90"] = quantile(runs, 0.9)
	b.layer["core.user.run_ms_p50"] = median(user)
	b.layer["core.resource.run_ms_p50"] = median(resource)
	b.layer["core.ms_per_round"] = sum(runs) / float64(rounds)
	b.layer["core.migrations_per_run"] = float64(migrations) / float64(len(runs))
	b.layer["core.moved_weight_per_run"] = moved / float64(len(runs))
	return nil
}
