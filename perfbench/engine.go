package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// engineSpec sizes one engine workload.
type engineSpec struct {
	n      int
	fleet  bool // speeds 1/2/4/10, power-of-2 dispatch, rack churn, message faults
	setups int  // set-ups per run; setup_s is their median
	// warmup is the untimed rounds before measuring: a multiple of the
	// engine's default 64-round telemetry period, so the phase reports
	// of a traced run cover exactly the timed rounds.
	warmup  int
	horizon int // Config.Rounds; the run stops measuring before it
	// probeAt is the timed round count after which heap_mb is probed
	// (a multiple of the timing block). An engine's live heap keeps
	// growing long after warm-up, so probing at a fixed round rather
	// than at the end keeps heap_mb independent of how many rounds the
	// host managed in the measured time.
	probeAt int
}

// churnPeriod is the fleet's rack failure period in rounds; the rack
// returns half a period after it fails.
const churnPeriod = 40

// window is the metrics window: warm-ups are multiples of it, so the
// overload fraction can skip exactly the warm-up windows.
const window = 64

func simSpec(toy bool) engineSpec {
	if toy {
		return engineSpec{n: 600, setups: 2, warmup: 64, horizon: 1 << 20, probeAt: 64}
	}
	return engineSpec{n: 10_000, setups: 3, warmup: 256, horizon: 1 << 20, probeAt: 1024}
}

func fleetSpec(toy bool) engineSpec {
	if toy {
		return engineSpec{n: 800, fleet: true, setups: 1, warmup: 64, horizon: 20_000, probeAt: 40}
	}
	return engineSpec{n: 10_000, fleet: true, setups: 3, warmup: 64, horizon: 20_000, probeAt: 320}
}

// subSeed derives an independent seed for one input stream from the
// workload seed.
func subSeed(seed uint64, stream uint64) uint64 {
	return rng.Hash3(seed, stream, 0x9e3779b97f4a7c15, 0)
}

const (
	streamGraph = iota + 1
	streamEngine
	streamArrivals
	streamFaults
	streamInstances
	streamBodies
)

// engineInputs is the topology side of an engine workload: graph and,
// for the fleet, speeds and the churned rack.
type engineInputs struct {
	g      *graph.Graph
	speeds []float64
	rack0  []int
	speed  float64 // total speed
}

// buildInputs builds the graph (and for the fleet the rack topology)
// inside span parent.
func buildInputs(b *bench, sp engineSpec, parent int) (*engineInputs, error) {
	sid := b.spans.begin("graph.build", parent)
	g := graph.RandomRegular(sp.n, 16, rng.NewSeeded(subSeed(b.seed, streamGraph)))
	b.spans.end(sid)
	in := &engineInputs{g: g, speed: float64(sp.n)}
	if !sp.fleet {
		return in, nil
	}
	topo, err := recovery.Synth(sp.n, 8, 2)
	if err != nil {
		return nil, err
	}
	in.rack0 = topo.RackList(0, nil)
	in.speeds = make([]float64, sp.n)
	in.speed = 0
	for r := range in.speeds {
		in.speeds[r] = []float64{1, 2, 4, 10}[r%4]
		in.speed += in.speeds[r]
	}
	return in, nil
}

// config assembles an engine configuration with fresh stateful parts
// (tuner), as both NewEngine and Resume require.
func (in *engineInputs) config(b *bench, sp engineSpec, workers int, broker *obs.Broker, parent int) dynamic.Config {
	sid := b.spans.begin("walk.kernel", parent)
	proto := core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(in.g))}
	tunerKernel := walk.NewLazy(walk.NewMaxDegree(in.g))
	b.spans.end(sid)
	cfg := dynamic.Config{
		Graph:    in.g,
		Protocol: proto,
		Arrivals: dynamic.External{},
		Service:  dynamic.WeightProportional{Rate: 1},
		Tuner:    &dynamic.SelfTuner{Eps: 0.5, Steps: 2, Kernel: tunerKernel},
		Rounds:   sp.horizon,
		Window:   window,
		Seed:     subSeed(b.seed, streamEngine),
		Workers:  workers,
		Obs:      broker,
	}
	if sp.fleet {
		cfg.Speeds = in.speeds
		cfg.Dispatch = dynamic.PowerOfD{D: 2}
		cfg.Churn = dynamic.Churn{
			MinUp: sp.n / 4,
			Events: []dynamic.ChurnEvent{
				{Round: 10, Every: churnPeriod, DownList: in.rack0},
				{Round: 10 + churnPeriod/2, Every: churnPeriod, UpList: in.rack0},
			},
		}
		cfg.Faults = &faults.Plan{Loss: 0.01, DelayProb: 0.005, DelayMax: 3, DupProb: 0.001,
			RetryBase: 1, RetryCap: 8, Timeout: 30, Seed: subSeed(b.seed, streamFaults)}
	}
	return cfg
}

// arrivalGen generates the Poisson(ρ = 0.8) Pareto(2, cap 20) batches
// the benchmark pushes through Engine.Step.
type arrivalGen struct {
	p   dynamic.Poisson
	r   *rng.Rand
	t   int
	buf []float64
}

func newArrivalGen(seed uint64, totalSpeed float64) *arrivalGen {
	// E[w] of Pareto(2) capped at 20 is 1.95, so this rate offers
	// ρ = 0.8 of the fleet's service capacity.
	return &arrivalGen{
		p: dynamic.Poisson{Rate: 0.8 * totalSpeed / 1.95, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		r: rng.NewSeeded(subSeed(seed, streamArrivals)),
	}
}

// next returns the next round's batch; the slice is reused.
func (a *arrivalGen) next() []float64 {
	a.buf = a.p.AppendNext(a.t, a.r, a.buf[:0])
	a.t++
	return a.buf
}

// setupEngines runs the workload's set-ups, each building the inputs
// and an engine with the run's worker count, and reports setup_s as the
// median of their reference-scaled CPU times. It returns the last
// set-up's inputs and engine (the others are closed).
func setupEngines(b *bench, sp engineSpec, broker *obs.Broker, root int) (*engineInputs, *dynamic.Engine, error) {
	var in *engineInputs
	var en *dynamic.Engine
	setup, err := timeSetups(b.cal, sp.setups, func(int) error {
		if en != nil {
			en.Close()
			en = nil
		}
		sid := b.spans.begin("setup", root)
		defer b.spans.end(sid)
		var err error
		if in, err = buildInputs(b, sp, sid); err != nil {
			return err
		}
		cfg := in.config(b, sp, b.workers(), broker, sid)
		eid := b.spans.begin("dynamic.new_engine", sid)
		en, err = dynamic.NewEngine(cfg)
		b.spans.end(eid)
		return b.op(err)
	})
	if err != nil {
		return nil, nil, err
	}
	b.e2e["setup_s"] = setup
	b.layer["graph.build_s"] = median(b.spans.durations("graph.build")) / 1e3
	b.layer["walk.kernel_s"] = median(b.spans.durations("walk.kernel")) / 1e3
	b.layer["dynamic.new_engine_s"] = median(b.spans.durations("dynamic.new_engine")) / 1e3
	// The repeated set-ups leave garbage behind; collect it so the
	// timed section does not pay for it.
	runtime.GC()
	return in, en, nil
}

// warm steps the engines through the untimed warm-up rounds with
// identical batches.
func warm(b *bench, sp engineSpec, gen *arrivalGen, root int, ens ...*dynamic.Engine) error {
	sid := b.spans.begin("dynamic.warmup", root)
	defer b.spans.end(sid)
	for t := 0; t < sp.warmup; t++ {
		w := gen.next()
		for _, en := range ens {
			if _, err := en.Step(dynamic.StepInput{Weights: w}); b.op(err) != nil {
				return err
			}
		}
	}
	return nil
}

// phaseSub subscribes to the engine's phase telemetry in a traced run.
func phaseSub(broker *obs.Broker) *obs.Subscription {
	if broker == nil {
		return nil
	}
	return broker.Subscribe(obs.SubOptions{Capacity: 1 << 14,
		Kinds: obs.Mask(obs.KindPhase, obs.KindShardCost), Policy: obs.DropNewest})
}

// roundStats accumulates the per-round figures of the timed rounds.
type roundStats struct {
	timed    []float64 // the timed engine's Step wall times, ms
	inFlight []float64
	mem0     runtime.MemStats
	steps    int // every Step in the timed section, any engine
}

func (rs *roundStats) start() { runtime.ReadMemStats(&rs.mem0) }

// finishMem reports allocation and GC rates over the timed Steps.
func (rs *roundStats) finishMem(b *bench) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if rs.steps > 0 {
		b.layer["dynamic.alloc_bytes_per_round"] = float64(m.TotalAlloc-rs.mem0.TotalAlloc) / float64(rs.steps)
		b.layer["dynamic.gc_per_1k_rounds"] = float64(m.NumGC-rs.mem0.NumGC) * 1000 / float64(rs.steps)
	}
}

// step runs one timed Step; traced runs wrap it in a span.
func step(b *bench, en *dynamic.Engine, w []float64, parent int) (time.Duration, error) {
	sid := b.spans.begin("dynamic.step", parent)
	start := time.Now()
	_, err := en.Step(dynamic.StepInput{Weights: w})
	d := time.Since(start)
	b.spans.end(sid)
	return d, b.op(err)
}

// finish closes a run; Finish's error covers the conservation check.
func finish(b *bench, en *dynamic.Engine, name string, parent int) dynamic.Result {
	sid := b.spans.begin("dynamic.finish", parent)
	res, err := en.Finish()
	b.spans.end(sid)
	b.check(name, err == nil, "%v", err)
	return res
}

// resultLayer reports the per-round counts and the recovery, fault and
// lifecycle figures of a finished run.
func resultLayer(b *bench, warmup int, res dynamic.Result, rs *roundStats) {
	rounds := float64(res.Rounds)
	b.layer["dynamic.arrivals"] = float64(res.Arrived) / rounds
	b.layer["dynamic.departures"] = float64(res.Departed) / rounds
	b.layer["dynamic.migrations"] = float64(res.Migrations) / rounds
	b.layer["dynamic.moved_weight"] = res.MovedWeight / rounds
	b.layer["dynamic.bounced"] = float64(res.Bounced) / rounds
	b.layer["dynamic.in_flight_mean"] = mean(rs.inFlight)
	b.layer["dynamic.overload_frac"] = orZero(res.TailOverloadFrac(warmup / window))
	b.layer["trace.sojourn_p99_rounds"] = res.Sojourn.Quantile(0.99)

	var evac, drain, peak []float64
	for _, rc := range res.Recoveries {
		evac = append(evac, float64(rc.EvacTasks))
		peak = append(peak, rc.PeakOverload)
		if rc.Drained() {
			drain = append(drain, float64(rc.DrainRounds))
		}
	}
	b.layer["recovery.evac_tasks_per_event"] = mean(evac)
	b.layer["recovery.drain_rounds_p50"] = orZero(median(drain))
	b.layer["recovery.peak_overload_p50"] = orZero(median(peak))

	k := 1000 / rounds
	b.layer["faults.lost_per_1k_rounds"] = float64(res.Lost) * k
	b.layer["faults.retries_per_1k_rounds"] = float64(res.Retries) * k
	b.layer["faults.timeouts_per_1k_rounds"] = float64(res.Timeouts) * k
	b.layer["faults.deduped_per_1k_rounds"] = float64(res.Deduped) * k
	if res.Lost > 0 {
		b.layer["faults.timeout_ratio"] = float64(res.Timeouts) / float64(res.Lost)
	}
	b.layer["faults.retry_lat_p99_rounds"] = res.RetryLat.Quantile(0.99)
}

// simBlock is the Engine.Steps one sim-10k op times: a single ~2 ms
// Step sits within one scheduling quantum, so short bursts of host
// contention land whole in the tail; a ~60 ms block evens them out, as
// paper-static's three pairs do, and a 20 s run still times ~300 ops.
const simBlock = 32

// simWorkload: sim-10k. A 10,000-resource 16-regular expander under
// ρ = 0.8 Poisson traffic; one op is simBlock consecutive
// Engine.Steps, timed in process CPU time. A traced run (Workers=2)
// steps a second, untraced engine round by round on the identical
// batches: the two Results must match, and their round-time medians
// give the tracing overhead.
func simWorkload(b *bench) error {
	sp := simSpec(b.toy)
	root := b.spans.begin("sim", 0)
	defer b.spans.end(root)

	var broker *obs.Broker
	if b.traced() {
		broker = obs.NewBroker()
	}
	in, en, err := setupEngines(b, sp, broker, root)
	if err != nil {
		return err
	}
	defer en.Close()
	var control *dynamic.Engine
	ens := []*dynamic.Engine{en}
	if b.traced() {
		if control, err = dynamic.NewEngine(in.config(b, sp, b.workers(), nil, root)); b.op(err) != nil {
			return err
		}
		defer control.Close()
		ens = append(ens, control)
	}
	gen := newArrivalGen(b.seed, in.speed)
	if err := warm(b, sp, gen, root, ens...); err != nil {
		return err
	}
	b.layer["dynamic.warmup_s"] = b.spans.seconds("dynamic.warmup")
	heap := newHeapPeak()
	sub := phaseSub(broker)
	tally := newPhaseTally()
	var evBuf []obs.Event

	var rs roundStats
	var controlMs []float64
	var ops opTimes
	rs.start()
	deadline := time.Now().Add(b.seconds)
	for time.Now().Before(deadline) && en.NextRound()+simBlock < sp.horizon {
		var cpu time.Duration
		for i := 0; i < simBlock; i++ {
			w := gen.next()
			c0 := cpuNow()
			d, err := step(b, en, w, root)
			cpu += cpuNow() - c0
			if err != nil {
				return err
			}
			rs.timed = append(rs.timed, ms(d))
			rs.steps++
			if control != nil {
				start := time.Now()
				_, err := control.Step(dynamic.StepInput{Weights: w})
				controlMs = append(controlMs, ms(time.Since(start)))
				rs.steps++
				if b.op(err) != nil {
					return err
				}
			}
		}
		ops.add(ms(cpu), b.cal.measure())
		rs.inFlight = append(rs.inFlight, float64(en.Stats().InFlight))
		if len(rs.timed) == sp.probeAt {
			heap.probe()
		}
		if sub != nil {
			evBuf = tally.drain(sub, evBuf)
		}
	}
	rs.finishMem(b)
	if len(rs.timed) < sp.probeAt {
		heap.probe()
	}
	res := finish(b, en, "sim.finish_conservation", root)
	b.e2e["heap_mb"] = heap.mib()
	ops.report(b)
	resultLayer(b, sp.warmup, res, &rs)
	if control != nil {
		cres := finish(b, control, "sim.control_finish_conservation", root)
		b.check("sim.traced_eq_untraced", reflect.DeepEqual(res, cres), "traced and untraced Results differ in %v", diffFields(res, cres))
		evBuf = tally.drain(sub, evBuf)
		if err := tally.report(b.layer, len(rs.timed), sum(b.spans.durations("dynamic.step"))); err != nil {
			return err
		}
		c := median(controlMs)
		b.layer["obs.trace_overhead_frac"] = (median(b.spans.durations("dynamic.step")) - c) / c
	}
	return nil
}

// fleetOpSteps is the consecutive Engine.Steps one fleet-10k op times
// in process CPU time; it divides the churnPeriod-1 timed rounds of a
// block, so a block times 13 ops.
const fleetOpSteps = 3

// fleetWorkload: fleet-10k. A 10,000-resource heterogeneous fleet
// (speeds 1/2/4/10, 8 racks in 2 zones, power-of-2 dispatch) whose
// rack 0 fails every 40 rounds and returns 20 rounds later, under 1%
// message loss, 0.5% delay and 0.1% duplication; ρ = 0.8. One op is
// fleetOpSteps consecutive Engine.Steps of the timed engine. A twin
// with the other worker count (Workers=2 beside the untraced runs'
// Workers=1 engine, Workers=1 beside the traced runs' Workers=2 one) is
// fed the identical batches from round 0 and stepped in alternating
// blocks; the two Results must match. After the timed rounds the warm
// engine is checkpointed and resumed.
func fleetWorkload(b *bench) error {
	sp := fleetSpec(b.toy)
	root := b.spans.begin("fleet", 0)
	defer b.spans.end(root)

	var broker *obs.Broker
	if b.traced() {
		broker = obs.NewBroker()
	}
	in, en, err := setupEngines(b, sp, broker, root)
	if err != nil {
		return err
	}
	defer en.Close()
	twin, err := dynamic.NewEngine(in.config(b, sp, 3-b.workers(), nil, root))
	if b.op(err) != nil {
		return err
	}
	defer twin.Close()
	gen := newArrivalGen(b.seed, in.speed)
	if err := warm(b, sp, gen, root, en, twin); err != nil {
		return err
	}
	b.layer["dynamic.warmup_s"] = b.spans.seconds("dynamic.warmup")
	heap := newHeapPeak()
	sub := phaseSub(broker)
	tally := newPhaseTally()
	var evBuf []obs.Event
	var rs roundStats
	var twinMs []float64 // the twin's Step wall times; Workers=1 in traced runs
	// The engine and its twin alternate once per churn period, so the
	// timed rounds cover whole periods (Step time depends on the churn
	// phase: a rack is down for 20 of every 40 rounds). The first round
	// of each block refills caches the other engine evicted; that cost
	// is the twin's doing, not the program's, so it is stepped but not
	// timed.
	const block = churnPeriod
	batches := make([][]float64, block)
	var ops opTimes
	rounds := 0
	rs.start()
	deadline := time.Now().Add(b.seconds)
	for time.Now().Before(deadline) && en.NextRound()+block < sp.horizon {
		for i := range batches {
			batches[i] = append(batches[i][:0], gen.next()...)
		}
		var cpu time.Duration
		for i, w := range batches {
			c0 := cpuNow()
			d, err := step(b, en, w, root)
			if i > 0 {
				cpu += cpuNow() - c0
			}
			if err != nil {
				return err
			}
			if i > 0 {
				rs.timed = append(rs.timed, ms(d))
				if i%fleetOpSteps == 0 {
					ops.add(ms(cpu), b.cal.measure())
					cpu = 0
				}
			}
			rs.steps++
		}
		rs.inFlight = append(rs.inFlight, float64(en.Stats().InFlight))
		for i, w := range batches {
			start := time.Now()
			_, err := twin.Step(dynamic.StepInput{Weights: w})
			if i > 0 {
				twinMs = append(twinMs, ms(time.Since(start)))
			}
			rs.steps++
			if b.op(err) != nil {
				return err
			}
		}
		if rounds += block; rounds == sp.probeAt {
			heap.probe()
		}
		if sub != nil {
			evBuf = tally.drain(sub, evBuf)
		}
	}
	rs.finishMem(b)
	if rounds < sp.probeAt {
		heap.probe()
	}

	// Checkpoint the warm engine and resume it.
	var snap bytes.Buffer
	start := time.Now()
	sid := b.spans.begin("snapshot.checkpoint", root)
	err = en.Checkpoint(&snap)
	b.spans.end(sid)
	b.layer["snapshot.checkpoint_ms"] = ms(time.Since(start))
	b.layer["snapshot.bytes"] = float64(snap.Len())
	if b.op(err) != nil {
		return err
	}
	var resumes, allocs []float64
	for i := 0; i < 3; i++ {
		cfg := in.config(b, sp, b.workers(), nil, root)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		sid := b.spans.begin("snapshot.resume", root)
		r, err := dynamic.Resume(bytes.NewReader(snap.Bytes()), cfg)
		b.spans.end(sid)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if b.op(err) != nil {
			return err
		}
		b.check("fleet.resume_round", r.NextRound() == en.NextRound(),
			"resumed at round %d, checkpointed at %d", r.NextRound(), en.NextRound())
		r.Close()
		resumes = append(resumes, d.Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	b.layer["snapshot.resume_s"] = median(resumes)
	b.layer["snapshot.resume_allocs"] = median(allocs)

	res := finish(b, en, "fleet.finish_conservation", root)
	tres := finish(b, twin, "fleet.twin_finish_conservation", root)
	b.check("fleet.w1_eq_w2", reflect.DeepEqual(res, tres), "Workers=1 and Workers=2 Results differ in %v", diffFields(res, tres))
	b.check("fleet.churn_ran", len(res.Recoveries) > 0, "no rack failure happened")
	b.check("fleet.faults_ran", res.Lost > 0, "the fault layer lost no message")
	if len(twinMs) == 0 {
		return fmt.Errorf("no timed rounds ran in %v", b.seconds)
	}

	b.e2e["heap_mb"] = heap.mib()
	ops.report(b)
	b.layer["par.w1_round_ms_p50"] = median(twinMs)
	b.layer["par.w2_round_ms_p50"] = median(rs.timed)
	b.layer["par.speedup_w2"] = median(twinMs) / median(rs.timed)
	resultLayer(b, sp.warmup, res, &rs)
	if sub != nil {
		tally.drain(sub, evBuf)
		return tally.report(b.layer, rounds, sum(b.spans.durations("dynamic.step")))
	}
	return nil
}

// diffFields names the fields in which two Results differ.
func diffFields(a, b dynamic.Result) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var names []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			names = append(names, va.Type().Field(i).Name)
		}
	}
	return names
}
