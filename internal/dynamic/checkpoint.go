package dynamic

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Checkpoint/restore for the open-system engine. A checkpoint captures
// the COMPLETE mutable state a resumed run needs to finish
// byte-identical to the uninterrupted one: every RNG stream position,
// the task set (free list included — ID assignment is a pure function
// of its LIFO order), every stack with its incrementally-accumulated
// load bits, the threshold vector, the up/down and reachable sets in
// their exact internal order (uniform draws index into them), the
// quarantine ledger, the fault injector's in-flight ledger and delay
// wheel, stateful tuner and re-home policy internals, the recovery
// episode tracker, the window accumulators and the full Result so far.
//
// Every stateful component lists its checkpoint fields once, in one
// Snapshot method walked through a snapshot.Codec: the same walk writes
// the checkpoint and restores it, so the two sides cannot drift.
//
// Deliberately NOT captured: measured phase nanos, exchange lane
// counters and the per-shard window accumulators — work-split state
// that never affects results (the determinism contract makes every
// phase partition-invariant). Shards are the fixed pool.Shard(n, i)
// split, so they differ after a resume only when the worker count
// does; per-shard telemetry (KindShardWindow, KindLanes,
// KindShardCost, KindPhase) may then attribute work differently than
// the uninterrupted run even though Result and all
// partition-invariant event kinds are bit-identical.
//
// Identity contract: Resume must be given an equivalent Config (same
// graph, seed, rounds, window, protocol, processes and plans) with
// FRESH stateful components (tuner, re-home policy, dispatcher) — the
// snapshot restores their state, it cannot un-run a used one. The
// snapshot stores enough fingerprint (n, seed, rounds, window,
// component presence flags) to reject the obvious mismatches with a
// structured error instead of diverging silently.

// ErrCrashed is returned by a run cut short by Config.CrashAfterRound
// — the crash-injection harness's signal that the simulated kill, not
// a real failure, ended the run.
var ErrCrashed = errors.New("dynamic: run crashed by Config.CrashAfterRound")

// Snapshotter is implemented by stateful pluggable components
// (tuners, re-home policies) whose internal state must ride the
// engine checkpoint. Snapshot walks the component's persistent state
// through c as one section body: it writes the state on checkpoint and
// restores it, on resume, into a freshly constructed component of the
// same configuration, reporting inconsistencies through c.Fail.
type Snapshotter interface {
	Snapshot(c *snapshot.Codec)
}

// Engine is the resumable form of Run: construct with NewEngine (or
// Resume), call Run once, and Close when done. Checkpoint may be
// called before Run starts or after it returns — never concurrently
// with it (the run loop's own cadence checkpoints live via
// Config.CheckpointEvery/OnCheckpoint).
type Engine struct {
	e      *engine
	closed bool
}

// NewEngine validates cfg and builds an engine without starting it.
func NewEngine(cfg Config) (*Engine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return &Engine{e: newEngine(cfg)}, nil
}

// Run executes the run (from the snapshot's round when the engine was
// built by Resume). Call at most once.
func (en *Engine) Run() (Result, error) {
	return en.e.run()
}

// Checkpoint encodes the engine's current state and writes it to w.
func (en *Engine) Checkpoint(w io.Writer) error {
	data := en.e.checkpointBytes()
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("dynamic: writing checkpoint: %w", err)
	}
	return nil
}

// Close releases the engine's worker pool. Idempotent.
func (en *Engine) Close() {
	if !en.closed {
		en.closed = true
		en.e.close()
	}
}

// Resume reads a snapshot and builds an engine that continues the
// checkpointed run: its Run() enters the round loop at the snapshot's
// boundary and finishes byte-identical to the uninterrupted run. cfg
// must be equivalent to the original run's Config (fresh stateful
// components included); mismatches the snapshot can detect fail here
// with a structured error.
func Resume(r io.Reader, cfg Config) (*Engine, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot: %w", err)
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	if err := e.restore(data); err != nil {
		e.close()
		return nil, err
	}
	// The crash drill fires when round CrashAfterRound completes; a
	// snapshot already at or past it would otherwise resume into a run
	// where the scripted crash silently never happens.
	if cfg.CrashAfterRound > 0 && e.startRound >= cfg.CrashAfterRound {
		e.close()
		return nil, fmt.Errorf("dynamic: snapshot resumes at round %d, at or past Config.CrashAfterRound %d — the scripted crash can never fire; drop CrashAfterRound to resume", e.startRound, cfg.CrashAfterRound)
	}
	return &Engine{e: e}, nil
}

// checkpoint runs one cadence checkpoint: encode, announce on the
// broker, hand the bytes to the sink.
func (e *engine) checkpoint() error {
	data := e.checkpointBytes()
	if e.cfg.OnCheckpoint != nil {
		if err := e.cfg.OnCheckpoint(e.nextRound, data); err != nil {
			return fmt.Errorf("dynamic: checkpoint at round %d: %w", e.nextRound, err)
		}
	}
	return nil
}

// checkpointBytes encodes the snapshot capturing the boundary entering
// nextRound and publishes its KindCheckpoint marker. The returned
// slice aliases the engine's reusable writer buffer; encoding is
// allocation-free once that buffer reaches its high-water mark.
func (e *engine) checkpointBytes() []byte {
	if e.ckpt == nil {
		e.ckpt = snapshot.NewWriter()
	}
	e.ckpt.Reset()
	e.snapshot(e.ckpt)
	data := e.ckpt.Finish()
	if e.broker != nil {
		e.ev = obs.Event{Kind: obs.KindCheckpoint, Round: e.nextRound,
			Checkpoint: obs.CheckpointEvent{Round: e.nextRound, Bytes: len(data)}}
		e.broker.Publish(&e.ev)
	}
	return data
}

// restore loads a snapshot into a freshly constructed engine (same
// Config shape). Any inconsistency — corruption, truncation,
// reordering, or a config that does not match the snapshot — returns a
// structured error; nothing loads silently.
func (e *engine) restore(data []byte) error {
	c, err := snapshot.NewReader(data)
	if err != nil {
		return err
	}
	seq := e.snapshot(c)
	if err := c.Close(); err != nil {
		return err
	}
	e.startRound = e.nextRound
	if e.broker != nil && seq > 0 {
		e.broker.ResumeSeq(seq)
	}
	return nil
}

// snapshot walks the complete engine state at the boundary entering
// nextRound, one section per concern, in file order. It returns the
// event sequence number the resumed broker continues from.
func (e *engine) snapshot(c *snapshot.Codec) (seq uint64) {
	tunerState, _ := e.cfg.Tuner.(Snapshotter)
	rehomeState, _ := e.rehome.(Snapshotter)

	c.Begin("meta")
	c.Match("resources", uint64(e.n))
	c.Match("seed", e.cfg.Seed)
	c.Match("run horizon", uint64(e.cfg.Rounds))
	c.Match("window", uint64(e.window))
	c.Int(&e.nextRound)
	if e.nextRound < 0 || e.nextRound > e.cfg.Rounds {
		c.Fail(fmt.Errorf("dynamic: snapshot resume round %d outside [0, %d]", e.nextRound, e.cfg.Rounds))
	}
	if e.broker != nil && !c.Decoding() {
		// The KindCheckpoint marker for this boundary publishes right
		// after encoding, so the saved sequence counts it: the resumed
		// stream continues numbering immediately after the marker.
		seq = e.broker.Published() + 1
	}
	c.Uint64(&seq)
	shards := len(e.shards) // the writing run's shard count — informational only
	c.Int(&shards)
	c.MatchBool("fault-injector state", e.inj != nil)
	c.MatchBool("partition reachability state", e.reach != e.up)
	c.MatchBool("quarantine state", e.quarCfg.enabled())
	c.MatchBool("tuner state", tunerState != nil)
	c.MatchBool("re-home state", rehomeState != nil)
	c.MatchBool("alert-tracker state", e.alertCnt != nil)
	c.End()

	c.Begin("rng")
	e.arrRand.Snapshot(c)
	e.dispRand.Snapshot(c)
	e.churnRand.Snapshot(c)
	for r := 0; r < e.n; r++ {
		e.s.Rand(r).Snapshot(c)
	}
	c.End()

	c.Begin("tasks")
	e.ts.Snapshot(c)
	c.End()

	c.Begin("state")
	e.s.Snapshot(c)
	c.End()

	c.Begin("ups")
	e.up.snapshot(c, e.n, "up")
	if e.reach != e.up {
		e.reach.snapshot(c, e.n, "reachable")
	}
	c.End()

	if e.quarCfg.enabled() {
		c.Begin("quar")
		c.Int32s(&e.flapCnt)
		c.Int32s(&e.quarUntil)
		c.Bools(&e.quarWantUp)
		c.Ints(&e.quarActive)
		if len(e.flapCnt) != e.n || len(e.quarUntil) != e.n || len(e.quarWantUp) != e.n {
			c.Fail(fmt.Errorf("dynamic: snapshot quarantine vectors do not cover the %d-resource fleet", e.n))
		}
		c.End()
	}

	if e.inj != nil {
		c.Begin("inj")
		e.inj.Snapshot(c)
		c.End()
	}

	if tunerState != nil {
		c.Begin("tuner")
		tunerState.Snapshot(c)
		c.End()
	}

	if rehomeState != nil {
		c.Begin("rehome")
		rehomeState.Snapshot(c)
		c.End()
	}

	if e.alertCnt != nil {
		c.Begin("alerts")
		e.snapshotAlerts(c)
		c.End()
	}

	// Vectors indexed by task ID grow with the ID space and never
	// shrink, so they cover at least the task set's ID space (more
	// after the set compacts its tail).
	m := e.ts.M()
	c.Begin("engine")
	c.Float64s(&e.remaining)
	if len(e.remaining) < m {
		c.Fail(fmt.Errorf("dynamic: snapshot service state covers %d task IDs, task set has %d", len(e.remaining), m))
	}
	c.Float64(&e.initialWeight)
	c.Float64(&e.prevOverload)
	c.Bool(&e.recOpen)
	e.recCur.snapshot(c)
	c.Int(&e.windowStart)
	c.Float64(&e.wOverload)
	c.Int64(&e.wMigrations)
	c.Int64(&e.wRehomed)
	c.Int64(&e.wArrivals)
	c.Int64(&e.wDepartures)
	// The per-shard window accumulators (wShardArr/Dep/Inb) are
	// deliberately NOT captured: per-shard attribution depends on the
	// worker count, and a resume may run with a different one
	// (TestResumeAcrossWorkerCounts). Dropping them keeps checkpoint
	// bytes identical across worker counts; the cost is one
	// under-counted KindShardWindow report right after resume —
	// per-shard telemetry is partition-dependent and outside the
	// determinism contract.
	c.End()

	c.Begin("trace")
	c.Int32s(&e.arrT)
	c.Int32s(&e.hopCnt)
	if len(e.arrT) < m || len(e.hopCnt) < m {
		c.Fail(fmt.Errorf("dynamic: snapshot trace state covers %d/%d task IDs, task set has %d",
			len(e.arrT), len(e.hopCnt), m))
	}
	c.End()

	c.Begin("result")
	e.res.snapshot(c)
	c.End()
	return seq
}

// snapshot walks the set's three vectors in their exact internal
// order: uniform draws index into them.
func (u *UpSet) snapshot(c *snapshot.Codec, n int, what string) {
	c.Ints(&u.list)
	c.Ints(&u.down)
	c.Ints(&u.pos)
	if len(u.pos) != n || len(u.list)+len(u.down) != n {
		c.Fail(fmt.Errorf("dynamic: snapshot %s set covers %d+%d of %d resources", what, len(u.list), len(u.down), n))
	}
}

// snapshotAlerts walks the domain SLO alert tracker: per level, the
// over-budget streaks and the firing flags.
func (e *engine) snapshotAlerts(c *snapshot.Codec) {
	if n := c.Count(len(e.alertCnt), 4); n != len(e.alertCnt) {
		c.Fail(fmt.Errorf("dynamic: snapshot alert tracker has %d levels, config has %d", n, len(e.alertCnt)))
		return
	}
	for li := range e.alertCnt {
		c.Int32s(&e.alertCnt[li])
		c.Bools(&e.alertActive[li])
		if d := len(e.domains[li].Names); len(e.alertCnt[li]) != d || len(e.alertActive[li]) != d {
			c.Fail(fmt.Errorf("dynamic: snapshot alert level %d covers %d domains, config has %d",
				li, len(e.alertCnt[li]), d))
			return
		}
	}
}

// snapshot walks the full Result accumulated so far — incrementally
// summed floats as exact bit patterns, the recovery and window
// histories verbatim.
func (res *Result) snapshot(c *snapshot.Codec) {
	c.Int(&res.Rounds)
	c.Int64(&res.Arrived)
	c.Int64(&res.Departed)
	c.Float64(&res.ArrivedWeight)
	c.Float64(&res.DepartedWeight)
	c.Int64(&res.Migrations)
	c.Float64(&res.MovedWeight)
	c.Int64(&res.Rehomed)
	c.Float64(&res.RehomedWeight)
	c.Int(&res.Downs)
	c.Int(&res.Ups)
	for i := range snapshot.Items(c, &res.Recoveries, 56) {
		res.Recoveries[i].snapshot(c)
	}
	for i := range snapshot.Items(c, &res.Windows, 112) {
		snapshotWindow(c, &res.Windows[i])
	}
	c.Int(&res.FinalInFlight)
	c.Float64(&res.FinalWeight)
	c.Int64(&res.Lost)
	c.Int64(&res.Delayed)
	c.Int64(&res.Duplicated)
	c.Int64(&res.Deduped)
	c.Int64(&res.Retries)
	c.Int64(&res.Timeouts)
	c.Int64(&res.PartitionBlocked)
	c.Int64(&res.Bounced)
	c.Float64(&res.BouncedWeight)
	c.Int(&res.Quarantined)
	c.Int(&res.FinalLedger)
	c.Float64(&res.FinalLedgerWeight)
	snapshotHist(c, &res.Sojourn)
	snapshotHist(c, &res.Hops)
	snapshotHist(c, &res.RetryLat)
}

func (rs *RecoveryStat) snapshot(c *snapshot.Codec) {
	c.Int(&rs.Round)
	c.Int(&rs.Downs)
	c.Int64(&rs.EvacTasks)
	c.Float64(&rs.EvacWeight)
	c.Float64(&rs.BaselineOverload)
	c.Float64(&rs.PeakOverload)
	c.Int(&rs.DrainRounds)
}

func snapshotWindow(c *snapshot.Codec, w *WindowStats) {
	c.Int(&w.Start)
	c.Int(&w.End)
	c.Float64(&w.OverloadFrac)
	c.Float64(&w.MigrationRate)
	c.Float64(&w.RehomeRate)
	c.Float64(&w.ArrivalRate)
	c.Float64(&w.DepartureRate)
	c.Float64(&w.MeanLoad)
	c.Float64(&w.MaxLoad)
	c.Float64(&w.P99Load)
	c.Float64(&w.P99LoadPerSpeed)
	c.Int(&w.InFlight)
	c.Float64(&w.InFlightWeight)
	c.Int(&w.UpResources)
}

// snapshotHist walks one fixed-bucket lifecycle histogram.
func snapshotHist(c *snapshot.Codec, h *trace.Hist) {
	for i := range h.Counts {
		c.Int64(&h.Counts[i])
	}
	c.Int64(&h.Sum)
}
