package dynamic

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// detKinds is the event-kind set the crash/resume golden suite holds
// byte-identical: every kind whose payload is part of the determinism
// contract. Excluded are the wall-clock kinds (KindPhase, KindShardCost)
// and the per-shard ones (KindShardWindow, KindLanes) — their
// accumulators depend on the worker count, which a resume may change,
// and are not snapshot state.
var detKinds = obs.Mask(obs.KindWindow, obs.KindDomainWindow,
	obs.KindRecoveryStart, obs.KindRecoveryEnd, obs.KindFaults,
	obs.KindQuarantine, obs.KindAlert, obs.KindCheckpoint,
	obs.KindTraceHist, obs.KindTrace)

// ckptCapture is one observed run: its Result, the deterministic-kind
// event stream, and every checkpoint it wrote (bytes copied).
type ckptCapture struct {
	res   Result
	err   error
	evs   []obs.Event
	snaps map[int][]byte
}

// runCkpt executes cfg — from scratch when snap is nil, resumed from
// snap otherwise — with a broker attached and every checkpoint
// captured.
func runCkpt(t *testing.T, cfg Config, snap []byte) ckptCapture {
	t.Helper()
	broker := obs.NewBroker()
	cfg.Obs = broker
	sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 15, Kinds: detKinds})
	snaps := map[int][]byte{}
	cfg.OnCheckpoint = func(round int, data []byte) error {
		snaps[round] = append([]byte(nil), data...)
		return nil
	}
	var res Result
	var err error
	if snap == nil {
		res, err = Run(cfg)
	} else {
		var eng *Engine
		eng, err = Resume(bytes.NewReader(snap), cfg)
		if err == nil {
			res, err = eng.Run()
			eng.Close()
		}
	}
	broker.Close()
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("subscription dropped %d events; raise the test ring capacity", n)
	}
	return ckptCapture{res: res, err: err, evs: drainAll(sub), snaps: snaps}
}

// prefixThroughCheckpoint cuts a crashed run's event stream directly
// after the checkpoint marker for `round` — the exact prefix the
// resumed run's stream continues.
func prefixThroughCheckpoint(t *testing.T, evs []obs.Event, round int) []obs.Event {
	t.Helper()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == obs.KindCheckpoint && evs[i].Round == round {
			return evs[:i+1]
		}
	}
	t.Fatalf("no checkpoint event for round %d in the crashed stream", round)
	return nil
}

// requireSameEvents fails with the first diverging event.
func requireSameEvents(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: event %d diverges\ngot  %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: event stream length %d, want %d", label, len(got), len(want))
}

// TestCheckpointCrashResumeGolden is the headline crash-recovery
// contract: for seeds {1, 2, 3}, workers {1, 2, 4, 8} and four fault
// regimes (fault-free churn, message loss with retry/timeout, scripted
// partition + flapping quarantine, traced delay + duplication), a run killed at a randomized round
// and resumed from its last checkpoint must finish byte-identical to
// the uninterrupted run — same Result, same deterministic-kind event
// stream (sequence numbers included), and every post-resume checkpoint
// byte-for-byte equal to the uninterrupted run's checkpoint at the
// same round.
func TestCheckpointCrashResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("crash/resume matrix is not short")
	}
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	proto := func() core.Protocol {
		return core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}
	}
	const rounds, window, every = 160, 40, 30
	base := func(seed uint64, workers int) Config {
		cfg := goldenConfig(200, proto(), g,
			Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, seed, workers)
		cfg.Rounds = rounds
		cfg.Window = window
		cfg.CheckpointEvery = every
		cfg.Domains = testDomains(200)
		cfg.AlertBudget = 0.2
		cfg.AlertWindows = 2
		return cfg
	}
	quarter := make([]int, 50)
	for i := range quarter {
		quarter[i] = i
	}
	cases := []struct {
		name  string
		build func(seed uint64, workers int) Config
	}{
		{"churn", base},
		{"loss-retry", func(seed uint64, workers int) Config {
			cfg := base(seed, workers)
			cfg.Faults = &faults.Plan{Loss: 0.2, RetryBase: 1, RetryCap: 4, Timeout: 12}
			return cfg
		}},
		{"partition-quarantine", func(seed uint64, workers int) Config {
			cfg := base(seed, workers)
			cfg.Faults = &faults.Plan{
				Loss:       0.05,
				RetryBase:  1,
				RetryCap:   4,
				Timeout:    12,
				Partitions: []faults.Partition{{Start: 50, End: 120, Members: quarter}},
			}
			cfg.Quarantine = Quarantine{Flaps: 2, Window: 40, Cooloff: 25}
			return cfg
		}},
		// Delayed and duplicated messages parked across a checkpoint must
		// resume with their provenance: a delivery after resume counts
		// its hop and stamps the traced record's From and Latency exactly
		// as the uninterrupted run does.
		{"delay-dup", func(seed uint64, workers int) Config {
			cfg := base(seed, workers)
			cfg.Faults = &faults.Plan{Loss: 0.05, DelayProb: 0.2, DelayMax: 6, DupProb: 0.05}
			cfg.TraceSample = 0.5
			return cfg
		}},
	}
	crashRng := rng.NewSeeded(0xC4A54)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				var refRes Result
				for _, workers := range []int{1, 2, 4, 8} {
					baseline := runCkpt(t, tc.build(seed, workers), nil)
					if baseline.err != nil {
						t.Fatalf("seed %d workers %d baseline: %v", seed, workers, baseline.err)
					}
					if workers == 1 {
						refRes = baseline.res
					} else if !reflect.DeepEqual(baseline.res, refRes) {
						t.Fatalf("seed %d: baseline diverges at workers=%d", seed, workers)
					}

					// Kill a second run at a randomized round past the first
					// checkpoint.
					crashAt := every + crashRng.Intn(rounds-every)
					ccfg := tc.build(seed, workers)
					ccfg.CrashAfterRound = crashAt
					crashed := runCkpt(t, ccfg, nil)
					if !errors.Is(crashed.err, ErrCrashed) {
						t.Fatalf("seed %d workers %d: crash run returned %v, want ErrCrashed", seed, workers, crashed.err)
					}
					for r, b := range crashed.snaps {
						if !bytes.Equal(b, baseline.snaps[r]) {
							t.Fatalf("seed %d workers %d: checkpoint at round %d differs between baseline and crashed run", seed, workers, r)
						}
					}

					last := (crashAt / every) * every
					snap := crashed.snaps[last]
					if snap == nil {
						t.Fatalf("seed %d workers %d: crashed at %d with no checkpoint for round %d", seed, workers, crashAt, last)
					}
					resumed := runCkpt(t, tc.build(seed, workers), snap)
					if resumed.err != nil {
						t.Fatalf("seed %d workers %d: resume from round %d: %v", seed, workers, last, resumed.err)
					}
					if !reflect.DeepEqual(resumed.res, baseline.res) {
						t.Fatalf("seed %d workers %d: resumed Result diverges (crash %d, resume %d)\ngot  %+v\nwant %+v",
							seed, workers, crashAt, last, resumed.res, baseline.res)
					}
					stream := append(prefixThroughCheckpoint(t, crashed.evs, last), resumed.evs...)
					requireSameEvents(t, tc.name, stream, baseline.evs)
					for r, b := range resumed.snaps {
						if r <= last {
							t.Fatalf("seed %d workers %d: resumed run rewrote checkpoint %d", seed, workers, r)
						}
						if !bytes.Equal(b, baseline.snaps[r]) {
							t.Fatalf("seed %d workers %d: post-resume checkpoint at round %d differs from baseline", seed, workers, r)
						}
					}
				}
			}
		})
	}
}

// TestResumeAcrossWorkerCounts pins worker-count independence of the
// snapshot itself: a checkpoint written by a 4-worker run resumes at 1,
// 2 and 8 workers and still reproduces the sequential baseline Result.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	const rounds, every, crashAt = 160, 30, 97
	build := func(workers int) Config {
		cfg := goldenConfig(200, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			g, Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, 5, workers)
		cfg.Rounds = rounds
		cfg.Window = 40
		cfg.CheckpointEvery = every
		cfg.Faults = &faults.Plan{Loss: 0.1, RetryBase: 1, RetryCap: 4, Timeout: 10}
		cfg.Domains = testDomains(200)
		cfg.AlertBudget = 0.2
		cfg.AlertWindows = 2
		return cfg
	}
	baseline := runCkpt(t, build(1), nil)
	if baseline.err != nil {
		t.Fatal(baseline.err)
	}
	ccfg := build(4)
	ccfg.CrashAfterRound = crashAt
	crashed := runCkpt(t, ccfg, nil)
	if !errors.Is(crashed.err, ErrCrashed) {
		t.Fatalf("crash run returned %v, want ErrCrashed", crashed.err)
	}
	snap := crashed.snaps[90]
	if snap == nil {
		t.Fatal("no checkpoint at round 90")
	}
	for _, workers := range []int{1, 2, 8} {
		resumed := runCkpt(t, build(workers), snap)
		if resumed.err != nil {
			t.Fatalf("resume at workers=%d: %v", workers, resumed.err)
		}
		if !reflect.DeepEqual(resumed.res, baseline.res) {
			t.Fatalf("4-worker checkpoint resumed at workers=%d diverges from the sequential baseline", workers)
		}
	}
}

// smallCkptConfig is the corruption-matrix workload: tiny, fast, no
// broker (the decoder paths under test are config-independent).
func smallCkptConfig() Config {
	g := graph.Complete(50)
	return Config{
		Graph:    g,
		Protocol: core.UserControlled{Alpha: 1},
		Arrivals: Poisson{Rate: 10, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Churn:  Churn{LeaveProb: 0.2, JoinProb: 0.2, MinUp: 25},
		Rounds: 40,
		Window: 20,
		Seed:   9,
	}
}

// writeSmallSnapshot produces one valid checkpoint of the small
// workload (written at round 20).
func writeSmallSnapshot(t *testing.T) []byte {
	t.Helper()
	cfg := smallCkptConfig()
	cfg.CheckpointEvery = 20
	cfg.CrashAfterRound = 25
	var snap []byte
	cfg.OnCheckpoint = func(round int, data []byte) error {
		if round == 20 {
			snap = append([]byte(nil), data...)
		}
		return nil
	}
	if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash run returned %v, want ErrCrashed", err)
	}
	if snap == nil {
		t.Fatal("no checkpoint written at round 20")
	}
	return snap
}

// TestResumeRejectsCorruptSnapshots drives the decoder through the
// corruption matrix: truncations at every region, single-bit flips
// across the whole file, and config mismatches must all fail restore
// with an error — never load silently, never panic.
func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	snap := writeSmallSnapshot(t)

	// Sanity: the pristine snapshot restores and finishes identically.
	full, err := Run(smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Resume(bytes.NewReader(snap), smallCkptConfig())
	if err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	res, err := eng.Run()
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("pristine resume diverges from the uninterrupted run")
	}

	for _, cut := range []int{0, 1, 7, 8, len(snap) / 4, len(snap) / 2, len(snap) - 9, len(snap) - 1} {
		if _, err := Resume(bytes.NewReader(snap[:cut]), smallCkptConfig()); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded silently", cut, len(snap))
		}
	}

	for off := 0; off < len(snap); off += 41 {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x10
		if _, err := Resume(bytes.NewReader(mut), smallCkptConfig()); err == nil {
			t.Fatalf("bit flip at offset %d loaded silently", off)
		}
	}

	mismatches := []struct {
		name     string
		mutate   func(*Config)
		fragment string
	}{
		{"seed", func(c *Config) { c.Seed = 999 }, "seed"},
		{"rounds", func(c *Config) { c.Rounds = 80 }, "horizon"},
		{"window", func(c *Config) { c.Window = 10 }, "window"},
		{"faults", func(c *Config) {
			c.Faults = &faults.Plan{Loss: 0.1, RetryBase: 1, RetryCap: 2, Timeout: 8}
		}, "fault-injector"},
		{"quarantine", func(c *Config) {
			c.Quarantine = Quarantine{Flaps: 2, Window: 10, Cooloff: 10}
		}, "quarantine"},
		{"tuner", func(c *Config) { c.Tuner = &OracleTuner{Eps: 0.5} }, "tuner"},
	}
	for _, m := range mismatches {
		cfg := smallCkptConfig()
		m.mutate(&cfg)
		_, err := Resume(bytes.NewReader(snap), cfg)
		if err == nil {
			t.Fatalf("%s mismatch loaded silently", m.name)
		}
		if !strings.Contains(err.Error(), m.fragment) {
			t.Fatalf("%s mismatch error %q does not mention %q", m.name, err, m.fragment)
		}
	}
}

// TestResumeRejectsShortTaskVectors pins the restore-side length
// checks on the vectors indexed by task ID: a sealed snapshot whose
// service, arrival-round or hop-count vector is shorter than the task
// set's ID space must fail Resume with an error naming that space, not
// load and then index out of range in Run. (The location map and the
// stacked task IDs are checked in core's TestStateSnapshotChecks.)
func TestResumeRejectsShortTaskVectors(t *testing.T) {
	snap := writeSmallSnapshot(t)
	cases := []struct {
		name string
		cut  func(e *engine)
	}{
		{"remaining", func(e *engine) { e.remaining = e.remaining[:len(e.remaining)/2] }},
		{"trace", func(e *engine) {
			e.arrT = e.arrT[:len(e.arrT)/2]
			e.hopCnt = e.hopCnt[:len(e.hopCnt)/2]
		}},
		{"arrT", func(e *engine) { e.arrT = e.arrT[:len(e.arrT)/2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Resume(bytes.NewReader(snap), smallCkptConfig())
			if err != nil {
				t.Fatal(err)
			}
			tc.cut(eng.e)
			var buf bytes.Buffer
			if err := eng.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			eng.Close()
			bad, err := Resume(&buf, smallCkptConfig())
			if err == nil {
				bad.Close()
				t.Fatalf("snapshot with a short %s vector loaded silently", tc.name)
			}
			if !strings.Contains(err.Error(), "task IDs") {
				t.Fatalf("short %s vector: error %q does not name the task-ID space", tc.name, err)
			}
		})
	}
}

// TestResumeAfterTaskSetCompaction pins the other side of those
// checks: once a drained burst lets the task set compact its ID space,
// the engine's task-ID vectors stay longer than the set (they never
// shrink), and a checkpoint taken then must still resume into the
// uninterrupted run.
func TestResumeAfterTaskSetCompaction(t *testing.T) {
	build := func() Config {
		burst := make([]float64, 4000)
		for i := range burst {
			burst[i] = 1
		}
		rounds := make([][]float64, 400)
		rounds[0], rounds[300] = burst, []float64{1, 1}
		g := graph.Complete(50)
		return Config{
			Graph:    g,
			Protocol: core.UserControlled{Alpha: 1},
			Arrivals: Trace{Rounds: rounds},
			Service:  WeightProportional{Rate: 1},
			Tuner:    &OracleTuner{Eps: 0.5},
			Rounds:   400,
			Window:   50,
			Seed:     1,
		}
	}
	full, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := build()
	cfg.CheckpointEvery = 350
	cfg.CrashAfterRound = 350
	var snap []byte
	var compacted bool
	cfg.OnCheckpoint = func(round int, data []byte) error {
		snap = append([]byte(nil), data...)
		return nil
	}
	cfg.OnRound = func(round int, s *core.State) {
		if round == 349 {
			compacted = s.Tasks().M() < 4000
		}
	}
	if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash run returned %v, want ErrCrashed", err)
	}
	if !compacted {
		t.Fatal("the task set did not compact before the checkpoint — workload too small for the test")
	}
	eng, err := Resume(bytes.NewReader(snap), build())
	if err != nil {
		t.Fatalf("checkpoint after compaction rejected: %v", err)
	}
	res, err := eng.Run()
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("resume after compaction diverges from the uninterrupted run")
	}
}

// TestResumeInitialTasksBeforeDeparture pins the restore of a task set
// that has never lost a task: its removal flags are not allocated yet,
// so a checkpoint of a run with initial tasks, taken before the first
// departure, must resume into the uninterrupted run.
func TestResumeInitialTasksBeforeDeparture(t *testing.T) {
	build := func() Config {
		cfg := smallCkptConfig()
		cfg.InitialWeights = []float64{1, 2, 3, 4}
		cfg.InitialPlacement = []int{0, 1, 2, 3}
		return cfg
	}
	full, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(build())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	resumed, err := Resume(&buf, build())
	if err != nil {
		t.Fatalf("round-0 checkpoint with initial tasks rejected: %v", err)
	}
	res, err := resumed.Run()
	resumed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("round-0 resume with initial tasks diverges from the plain run")
	}
}

// TestManualEngineCheckpoint pins the explicit Engine API: a snapshot
// taken before the first round resumes into the full run, bit for bit.
func TestManualEngineCheckpoint(t *testing.T) {
	full, err := Run(smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	resumed, err := Resume(&buf, smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	resumed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("round-0 checkpoint resume diverges from the plain run")
	}
}

// TestResumeSteadyStateZeroAllocs extends the zero-alloc contract to
// the resumed engine with live cadence checkpointing: past restore and
// encoder warm-up, steady-state rounds (checkpoint encoding included)
// allocate nothing.
func TestResumeSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark is not short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := graph.RandomRegular(256, 8, rng.NewSeeded(3))
	res := testing.Benchmark(func(b *testing.B) {
		const warm = 64
		build := func() Config {
			return Config{
				Graph:    g,
				Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Arrivals: Poisson{Rate: 0.8 * 256 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
				Service:  WeightProportional{Rate: 1},
				Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
					Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Rounds:          b.N + warm,
				Window:          1 << 30,
				Seed:            0x5eed,
				CheckpointEvery: warm,
			}
		}
		cfg := build()
		cfg.CrashAfterRound = warm
		var snap []byte
		cfg.OnCheckpoint = func(round int, data []byte) error {
			snap = append(snap[:0], data...)
			return nil
		}
		if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
			b.Fatalf("warm run returned %v, want ErrCrashed", err)
		}
		eng, err := Resume(bytes.NewReader(snap), build())
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("resumed steady-state round allocates %d times/op (%d B/op), want 0",
			allocs, res.AllocedBytesPerOp())
	}
}

// TestResumeRejectsSpentCrashDrill pins the Resume-side guard for the
// mutually-exclusive resume + crash-drill combination: a snapshot at or
// past Config.CrashAfterRound must be rejected with a message saying
// the scripted crash can never fire, while a drill still ahead of the
// snapshot round stays allowed.
func TestResumeRejectsSpentCrashDrill(t *testing.T) {
	snap := writeSmallSnapshot(t) // captures round 20 of a 40-round run
	cases := []struct {
		name    string
		crashAt int
		wantErr string // "" = must resume cleanly
	}{
		{"crash round already passed", 10,
			"dynamic: snapshot resumes at round 20, at or past Config.CrashAfterRound 10 — the scripted crash can never fire; drop CrashAfterRound to resume"},
		{"crash round equals snapshot round", 20,
			"dynamic: snapshot resumes at round 20, at or past Config.CrashAfterRound 20 — the scripted crash can never fire; drop CrashAfterRound to resume"},
		{"crash round still ahead", 30, ""},
		{"no crash drill", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCkptConfig()
			cfg.CrashAfterRound = tc.crashAt
			eng, err := Resume(bytes.NewReader(snap), cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				eng.Close()
				return
			}
			if err == nil {
				eng.Close()
				t.Fatalf("Resume accepted a spent crash drill (CrashAfterRound=%d)", tc.crashAt)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error = %q, want %q", err, tc.wantErr)
			}
		})
	}
}
