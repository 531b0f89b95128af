package dynamic

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/task"
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
// Deliberately NOT captured: shard boundaries, measured phase nanos and
// exchange lane counters — all wall-clock-driven work-split state that
// never affects results (the determinism contract makes every phase
// partition-invariant). A resumed run re-cuts its own boundaries, so
// per-shard telemetry (KindShardWindow, KindLanes, KindShardCost,
// KindPhase) may attribute work differently than the uninterrupted
// run even though Result and all partition-invariant event kinds are
// bit-identical.
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

// SnapshotStater is implemented by stateful pluggable components
// (tuners, re-home policies) whose internal state must ride the
// engine checkpoint. EncodeSnapshot writes the component's persistent
// state as one section body; DecodeSnapshot restores it into a freshly
// constructed component of the same configuration.
type SnapshotStater interface {
	EncodeSnapshot(*snapshot.Encoder)
	DecodeSnapshot(*snapshot.Section) error
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
	data := en.e.checkpointBytes(en.e.nextRound)
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
	if err := e.decodeState(data); err != nil {
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
func (e *engine) checkpoint(round int) error {
	data := e.checkpointBytes(round)
	if e.cfg.OnCheckpoint != nil {
		if err := e.cfg.OnCheckpoint(round, data); err != nil {
			return fmt.Errorf("dynamic: checkpoint at round %d: %w", round, err)
		}
	}
	return nil
}

// checkpointBytes encodes the snapshot capturing the boundary `round`
// and publishes its KindCheckpoint marker. The returned slice aliases
// the engine's reusable encoder buffer.
func (e *engine) checkpointBytes(round int) []byte {
	data := e.encodeState(round)
	if e.broker != nil {
		e.ev = obs.Event{Kind: obs.KindCheckpoint, Round: round,
			Checkpoint: obs.CheckpointEvent{Round: round, Bytes: len(data)}}
		e.broker.Publish(&e.ev)
	}
	return data
}

// encodeRand appends one generator's position (kind tag + 4 state
// words).
func encodeRand(enc *snapshot.Encoder, r *rng.Rand) {
	kind, words := r.State()
	enc.Uint8(kind)
	for _, w := range words {
		enc.Uint64(w)
	}
}

// decodeRand restores one generator's position.
func decodeRand(sec *snapshot.Section, r *rng.Rand) error {
	kind := sec.Uint8()
	var words [4]uint64
	for i := range words {
		words[i] = sec.Uint64()
	}
	if err := sec.Err(); err != nil {
		return err
	}
	return r.SetState(kind, words)
}

// encodeState serializes the complete engine state at the boundary
// entering `nextRound`. Allocation-free once the reusable encoder
// buffer reaches its high-water mark.
func (e *engine) encodeState(nextRound int) []byte {
	if e.ckptEnc == nil {
		e.ckptEnc = snapshot.NewEncoder()
	}
	enc := e.ckptEnc
	enc.Reset()

	tunerState, _ := e.cfg.Tuner.(SnapshotStater)
	rehomeState, _ := e.rehome.(SnapshotStater)

	enc.Begin("meta")
	enc.Int(e.n)
	enc.Uint64(e.cfg.Seed)
	enc.Int(e.cfg.Rounds)
	enc.Int(e.window)
	enc.Int(nextRound)
	var seq uint64
	if e.broker != nil {
		// The KindCheckpoint marker for this boundary publishes right
		// after encoding, so the saved sequence counts it: the resumed
		// stream continues numbering immediately after the marker.
		seq = e.broker.Published() + 1
	}
	enc.Uint64(seq)
	enc.Int(len(e.shards))
	enc.Bool(e.inj != nil)
	enc.Bool(e.reach != e.up)
	enc.Bool(e.quarCfg.enabled())
	enc.Bool(tunerState != nil)
	enc.Bool(rehomeState != nil)
	enc.Bool(e.alertCnt != nil)
	enc.End()

	enc.Begin("rng")
	encodeRand(enc, e.arrRand)
	encodeRand(enc, e.dispRand)
	encodeRand(enc, e.churnRand)
	for r := 0; r < e.n; r++ {
		encodeRand(enc, e.s.Rand(r))
	}
	enc.End()

	enc.Begin("tasks")
	tasks, removed, free, live, liveTop, total, wmax, wmin := e.ts.SnapshotState()
	enc.Uint32(uint32(len(tasks)))
	for i := range tasks {
		enc.Float64(tasks[i].Weight)
	}
	enc.Bools(removed)
	enc.Ints(free)
	enc.Int(live)
	enc.Int(liveTop)
	enc.Float64(total)
	enc.Float64(wmax)
	enc.Float64(wmin)
	enc.End()

	enc.Begin("state")
	enc.Int(e.s.Round())
	enc.Float64s(e.s.SnapshotThresholds())
	enc.Int32s(e.s.SnapshotLoc())
	wm, wmCount, wmDirty := e.s.SnapshotLiveWMax()
	enc.Float64(wm)
	enc.Int(wmCount)
	enc.Bool(wmDirty)
	ledgerN, ledgerW := e.s.InFlightLedger()
	enc.Int(ledgerN)
	enc.Float64(ledgerW)
	for r := 0; r < e.n; r++ {
		st := e.s.Stack(r)
		held := st.Tasks()
		enc.Uint32(uint32(len(held)))
		for _, tk := range held {
			enc.Int(tk.ID)
			enc.Float64(tk.Weight)
		}
		enc.Float64(st.Load())
	}
	enc.End()

	enc.Begin("ups")
	enc.Ints(e.up.list)
	enc.Ints(e.up.down)
	enc.Ints(e.up.pos)
	if e.reach != e.up {
		enc.Ints(e.reach.list)
		enc.Ints(e.reach.down)
		enc.Ints(e.reach.pos)
	}
	enc.End()

	if e.quarCfg.enabled() {
		enc.Begin("quar")
		enc.Int32s(e.flapCnt)
		enc.Int32s(e.quarUntil)
		enc.Bools(e.quarWantUp)
		enc.Ints(e.quarActive)
		enc.End()
	}

	if e.inj != nil {
		enc.Begin("inj")
		e.inj.EncodeSnapshot(enc)
		enc.End()
	}

	if tunerState != nil {
		enc.Begin("tuner")
		tunerState.EncodeSnapshot(enc)
		enc.End()
	}

	if rehomeState != nil {
		enc.Begin("rehome")
		rehomeState.EncodeSnapshot(enc)
		enc.End()
	}

	if e.alertCnt != nil {
		enc.Begin("alerts")
		enc.Uint32(uint32(len(e.alertCnt)))
		for li := range e.alertCnt {
			enc.Int32s(e.alertCnt[li])
			enc.Bools(e.alertActive[li])
		}
		enc.End()
	}

	enc.Begin("engine")
	enc.Float64s(e.remaining)
	enc.Float64(e.initialWeight)
	enc.Float64(e.prevOverload)
	enc.Bool(e.recOpen)
	enc.Int(e.recCur.Round)
	enc.Int(e.recCur.Downs)
	enc.Int64(e.recCur.EvacTasks)
	enc.Float64(e.recCur.EvacWeight)
	enc.Float64(e.recCur.BaselineOverload)
	enc.Float64(e.recCur.PeakOverload)
	enc.Int(e.recCur.DrainRounds)
	enc.Int(e.windowStart)
	enc.Float64(e.wOverload)
	enc.Int64(e.wMigrations)
	enc.Int64(e.wRehomed)
	enc.Int64(e.wArrivals)
	enc.Int64(e.wDepartures)
	// The per-shard window accumulators (wShardArr/Dep/Inb) are
	// deliberately NOT captured: per-shard attribution depends on the
	// worker count, and a resume may run with a different one
	// (TestResumeAcrossWorkerCounts). Dropping them keeps checkpoint
	// bytes identical across worker counts; the cost is one
	// under-counted KindShardWindow report right after resume —
	// per-shard telemetry is partition-dependent and outside the
	// determinism contract.
	enc.End()

	enc.Begin("trace")
	enc.Int32s(e.arrT)
	enc.Int32s(e.hopCnt)
	enc.End()

	enc.Begin("result")
	encodeResult(enc, &e.res)
	enc.End()

	return enc.Finish()
}

// decodeState restores a snapshot into a freshly constructed engine
// (same Config shape). Any inconsistency — corruption, truncation,
// reordering, or a config that does not match the snapshot — returns a
// structured error; nothing loads silently.
func (e *engine) decodeState(data []byte) error {
	d, err := snapshot.NewDecoder(data)
	if err != nil {
		return err
	}

	tunerState, _ := e.cfg.Tuner.(SnapshotStater)
	rehomeState, _ := e.rehome.(SnapshotStater)

	sec, err := d.Section("meta")
	if err != nil {
		return err
	}
	n := sec.Int()
	seed := sec.Uint64()
	rounds := sec.Int()
	window := sec.Int()
	nextRound := sec.Int()
	brokerSeq := sec.Uint64()
	sec.Int() // the writing run's shard count — informational only
	hasInj := sec.Bool()
	hasReach := sec.Bool()
	hasQuar := sec.Bool()
	hasTuner := sec.Bool()
	hasRehome := sec.Bool()
	hasAlerts := sec.Bool()
	if err := sec.Done(); err != nil {
		return err
	}
	switch {
	case n != e.n:
		return fmt.Errorf("dynamic: snapshot covers %d resources, config has %d", n, e.n)
	case seed != e.cfg.Seed:
		return fmt.Errorf("dynamic: snapshot seed %d does not match config seed %d", seed, e.cfg.Seed)
	case rounds != e.cfg.Rounds:
		return fmt.Errorf("dynamic: snapshot run horizon %d rounds does not match config %d", rounds, e.cfg.Rounds)
	case window != e.window:
		return fmt.Errorf("dynamic: snapshot window %d does not match config %d", window, e.window)
	case nextRound < 0 || nextRound > rounds:
		return fmt.Errorf("dynamic: snapshot resume round %d outside [0, %d]", nextRound, rounds)
	case hasInj != (e.inj != nil):
		return fmt.Errorf("dynamic: snapshot fault-injector state (%v) does not match config (%v)", hasInj, e.inj != nil)
	case hasReach != (e.reach != e.up):
		return fmt.Errorf("dynamic: snapshot partition reachability state (%v) does not match config (%v)", hasReach, e.reach != e.up)
	case hasQuar != e.quarCfg.enabled():
		return fmt.Errorf("dynamic: snapshot quarantine state (%v) does not match config (%v)", hasQuar, e.quarCfg.enabled())
	case hasTuner != (tunerState != nil):
		return fmt.Errorf("dynamic: snapshot tuner state (%v) does not match config tuner %q", hasTuner, e.cfg.Tuner.Name())
	case hasRehome != (rehomeState != nil):
		return fmt.Errorf("dynamic: snapshot re-home state (%v) does not match config policy %q", hasRehome, e.rehome.Name())
	case hasAlerts != (e.alertCnt != nil):
		return fmt.Errorf("dynamic: snapshot alert-tracker state (%v) does not match config (%v)", hasAlerts, e.alertCnt != nil)
	}

	sec, err = d.Section("rng")
	if err != nil {
		return err
	}
	if err := decodeRand(sec, e.arrRand); err != nil {
		return err
	}
	if err := decodeRand(sec, e.dispRand); err != nil {
		return err
	}
	if err := decodeRand(sec, e.churnRand); err != nil {
		return err
	}
	for r := 0; r < e.n; r++ {
		if err := decodeRand(sec, e.s.Rand(r)); err != nil {
			return err
		}
	}
	if err := sec.Done(); err != nil {
		return err
	}

	sec, err = d.Section("tasks")
	if err != nil {
		return err
	}
	nTasks := sec.Len(8)
	tasks := make([]task.Task, 0, nTasks)
	for i := 0; i < nTasks && sec.Err() == nil; i++ {
		tasks = append(tasks, task.Task{ID: i, Weight: sec.Float64()})
	}
	removed := sec.Bools(nil)
	free := sec.Ints(nil)
	live := sec.Int()
	liveTop := sec.Int()
	total := sec.Float64()
	wmax := sec.Float64()
	wmin := sec.Float64()
	if err := sec.Done(); err != nil {
		return err
	}
	if len(removed) != nTasks {
		return fmt.Errorf("dynamic: snapshot task set has %d removal flags for %d tasks", len(removed), nTasks)
	}
	e.ts.RestoreState(tasks, removed, free, live, liveTop, total, wmax, wmin)

	sec, err = d.Section("state")
	if err != nil {
		return err
	}
	coreRound := sec.Int()
	thr := sec.Float64s(nil)
	loc := sec.Int32s(nil)
	wm := sec.Float64()
	wmCount := sec.Int()
	wmDirty := sec.Bool()
	ledgerN := sec.Int()
	ledgerW := sec.Float64()
	var stkBuf []task.Task
	for r := 0; r < e.n && sec.Err() == nil; r++ {
		cnt := sec.Len(16)
		stkBuf = stkBuf[:0]
		for j := 0; j < cnt && sec.Err() == nil; j++ {
			id := sec.Int()
			w := sec.Float64()
			stkBuf = append(stkBuf, task.Task{ID: id, Weight: w})
		}
		load := sec.Float64()
		if sec.Err() == nil {
			e.s.Stack(r).Restore(stkBuf, load)
		}
	}
	if err := sec.Done(); err != nil {
		return err
	}
	if len(thr) != e.n {
		return fmt.Errorf("dynamic: snapshot threshold vector covers %d resources, fleet has %d", len(thr), e.n)
	}
	e.s.RestoreSnapshot(coreRound, thr, loc, wm, wmCount, wmDirty, ledgerN, ledgerW)

	sec, err = d.Section("ups")
	if err != nil {
		return err
	}
	e.up.list = sec.Ints(e.up.list)
	e.up.down = sec.Ints(e.up.down)
	e.up.pos = sec.Ints(e.up.pos)
	if hasReach {
		e.reach.list = sec.Ints(e.reach.list)
		e.reach.down = sec.Ints(e.reach.down)
		e.reach.pos = sec.Ints(e.reach.pos)
	}
	if err := sec.Done(); err != nil {
		return err
	}
	if len(e.up.pos) != e.n || len(e.up.list)+len(e.up.down) != e.n {
		return fmt.Errorf("dynamic: snapshot up set covers %d+%d of %d resources", len(e.up.list), len(e.up.down), e.n)
	}
	if hasReach && (len(e.reach.pos) != e.n || len(e.reach.list)+len(e.reach.down) != e.n) {
		return fmt.Errorf("dynamic: snapshot reachable set covers %d+%d of %d resources", len(e.reach.list), len(e.reach.down), e.n)
	}

	if hasQuar {
		sec, err = d.Section("quar")
		if err != nil {
			return err
		}
		e.flapCnt = sec.Int32s(e.flapCnt)
		e.quarUntil = sec.Int32s(e.quarUntil)
		e.quarWantUp = sec.Bools(e.quarWantUp)
		e.quarActive = sec.Ints(e.quarActive)
		if err := sec.Done(); err != nil {
			return err
		}
		if len(e.flapCnt) != e.n || len(e.quarUntil) != e.n || len(e.quarWantUp) != e.n {
			return fmt.Errorf("dynamic: snapshot quarantine vectors do not cover the %d-resource fleet", e.n)
		}
	}

	if hasInj {
		sec, err = d.Section("inj")
		if err != nil {
			return err
		}
		if err := e.inj.DecodeSnapshot(sec); err != nil {
			return err
		}
		if err := sec.Done(); err != nil {
			return err
		}
	}

	if hasTuner {
		sec, err = d.Section("tuner")
		if err != nil {
			return err
		}
		if err := tunerState.DecodeSnapshot(sec); err != nil {
			return err
		}
		if err := sec.Done(); err != nil {
			return err
		}
	}

	if hasRehome {
		sec, err = d.Section("rehome")
		if err != nil {
			return err
		}
		if err := rehomeState.DecodeSnapshot(sec); err != nil {
			return err
		}
		if err := sec.Done(); err != nil {
			return err
		}
	}

	if hasAlerts {
		sec, err = d.Section("alerts")
		if err != nil {
			return err
		}
		levels := int(sec.Uint32())
		if sec.Err() == nil && levels != len(e.alertCnt) {
			return fmt.Errorf("dynamic: snapshot alert tracker has %d levels, config has %d", levels, len(e.alertCnt))
		}
		for li := 0; li < levels && sec.Err() == nil; li++ {
			e.alertCnt[li] = sec.Int32s(e.alertCnt[li])
			e.alertActive[li] = sec.Bools(e.alertActive[li])
			if sec.Err() == nil &&
				(len(e.alertCnt[li]) != len(e.domains[li].Names) ||
					len(e.alertActive[li]) != len(e.domains[li].Names)) {
				return fmt.Errorf("dynamic: snapshot alert level %d covers %d domains, config has %d",
					li, len(e.alertCnt[li]), len(e.domains[li].Names))
			}
		}
		if err := sec.Done(); err != nil {
			return err
		}
	}

	sec, err = d.Section("engine")
	if err != nil {
		return err
	}
	e.remaining = sec.Float64s(e.remaining)
	e.initialWeight = sec.Float64()
	e.prevOverload = sec.Float64()
	e.recOpen = sec.Bool()
	e.recCur.Round = sec.Int()
	e.recCur.Downs = sec.Int()
	e.recCur.EvacTasks = sec.Int64()
	e.recCur.EvacWeight = sec.Float64()
	e.recCur.BaselineOverload = sec.Float64()
	e.recCur.PeakOverload = sec.Float64()
	e.recCur.DrainRounds = sec.Int()
	e.windowStart = sec.Int()
	e.wOverload = sec.Float64()
	e.wMigrations = sec.Int64()
	e.wRehomed = sec.Int64()
	e.wArrivals = sec.Int64()
	e.wDepartures = sec.Int64()
	if err := sec.Done(); err != nil {
		return err
	}

	sec, err = d.Section("trace")
	if err != nil {
		return err
	}
	e.arrT = sec.Int32s(e.arrT)
	e.hopCnt = sec.Int32s(e.hopCnt)
	if err := sec.Done(); err != nil {
		return err
	}
	if len(e.arrT) != len(e.hopCnt) {
		return fmt.Errorf("dynamic: snapshot trace state has %d arrival rounds for %d hop counters",
			len(e.arrT), len(e.hopCnt))
	}

	sec, err = d.Section("result")
	if err != nil {
		return err
	}
	if err := decodeResult(sec, &e.res); err != nil {
		return err
	}
	if err := sec.Done(); err != nil {
		return err
	}

	if err := d.Close(); err != nil {
		return err
	}

	e.startRound = nextRound
	e.nextRound = nextRound
	if e.broker != nil && brokerSeq > 0 {
		e.broker.ResumeSeq(brokerSeq)
	}
	return nil
}

// encodeResult serializes the full Result accumulated so far —
// incrementally-summed floats as exact bit patterns, the recovery and
// window histories verbatim.
func encodeResult(enc *snapshot.Encoder, res *Result) {
	enc.Int(res.Rounds)
	enc.Int64(res.Arrived)
	enc.Int64(res.Departed)
	enc.Float64(res.ArrivedWeight)
	enc.Float64(res.DepartedWeight)
	enc.Int64(res.Migrations)
	enc.Float64(res.MovedWeight)
	enc.Int64(res.Rehomed)
	enc.Float64(res.RehomedWeight)
	enc.Int(res.Downs)
	enc.Int(res.Ups)
	enc.Uint32(uint32(len(res.Recoveries)))
	for i := range res.Recoveries {
		rs := &res.Recoveries[i]
		enc.Int(rs.Round)
		enc.Int(rs.Downs)
		enc.Int64(rs.EvacTasks)
		enc.Float64(rs.EvacWeight)
		enc.Float64(rs.BaselineOverload)
		enc.Float64(rs.PeakOverload)
		enc.Int(rs.DrainRounds)
	}
	enc.Uint32(uint32(len(res.Windows)))
	for i := range res.Windows {
		w := &res.Windows[i]
		enc.Int(w.Start)
		enc.Int(w.End)
		enc.Float64(w.OverloadFrac)
		enc.Float64(w.MigrationRate)
		enc.Float64(w.RehomeRate)
		enc.Float64(w.ArrivalRate)
		enc.Float64(w.DepartureRate)
		enc.Float64(w.MeanLoad)
		enc.Float64(w.MaxLoad)
		enc.Float64(w.P99Load)
		enc.Float64(w.P99LoadPerSpeed)
		enc.Int(w.InFlight)
		enc.Float64(w.InFlightWeight)
		enc.Int(w.UpResources)
	}
	enc.Int(res.FinalInFlight)
	enc.Float64(res.FinalWeight)
	enc.Int64(res.Lost)
	enc.Int64(res.Delayed)
	enc.Int64(res.Duplicated)
	enc.Int64(res.Deduped)
	enc.Int64(res.Retries)
	enc.Int64(res.Timeouts)
	enc.Int64(res.PartitionBlocked)
	enc.Int64(res.Bounced)
	enc.Float64(res.BouncedWeight)
	enc.Int(res.Quarantined)
	enc.Int(res.FinalLedger)
	enc.Float64(res.FinalLedgerWeight)
	encodeHist(enc, &res.Sojourn)
	encodeHist(enc, &res.Hops)
	encodeHist(enc, &res.RetryLat)
}

// encodeHist/decodeHist persist one fixed-bucket lifecycle histogram.
func encodeHist(enc *snapshot.Encoder, h *trace.Hist) {
	for _, c := range h.Counts {
		enc.Int64(c)
	}
	enc.Int64(h.Sum)
}

func decodeHist(sec *snapshot.Section, h *trace.Hist) {
	for i := range h.Counts {
		h.Counts[i] = sec.Int64()
	}
	h.Sum = sec.Int64()
}

// decodeResult restores the Result written by encodeResult.
func decodeResult(sec *snapshot.Section, res *Result) error {
	res.Rounds = sec.Int()
	res.Arrived = sec.Int64()
	res.Departed = sec.Int64()
	res.ArrivedWeight = sec.Float64()
	res.DepartedWeight = sec.Float64()
	res.Migrations = sec.Int64()
	res.MovedWeight = sec.Float64()
	res.Rehomed = sec.Int64()
	res.RehomedWeight = sec.Float64()
	res.Downs = sec.Int()
	res.Ups = sec.Int()
	nRec := sec.Len(56)
	res.Recoveries = res.Recoveries[:0]
	for i := 0; i < nRec && sec.Err() == nil; i++ {
		var rs RecoveryStat
		rs.Round = sec.Int()
		rs.Downs = sec.Int()
		rs.EvacTasks = sec.Int64()
		rs.EvacWeight = sec.Float64()
		rs.BaselineOverload = sec.Float64()
		rs.PeakOverload = sec.Float64()
		rs.DrainRounds = sec.Int()
		res.Recoveries = append(res.Recoveries, rs)
	}
	nWin := sec.Len(112)
	res.Windows = res.Windows[:0]
	for i := 0; i < nWin && sec.Err() == nil; i++ {
		var w WindowStats
		w.Start = sec.Int()
		w.End = sec.Int()
		w.OverloadFrac = sec.Float64()
		w.MigrationRate = sec.Float64()
		w.RehomeRate = sec.Float64()
		w.ArrivalRate = sec.Float64()
		w.DepartureRate = sec.Float64()
		w.MeanLoad = sec.Float64()
		w.MaxLoad = sec.Float64()
		w.P99Load = sec.Float64()
		w.P99LoadPerSpeed = sec.Float64()
		w.InFlight = sec.Int()
		w.InFlightWeight = sec.Float64()
		w.UpResources = sec.Int()
		res.Windows = append(res.Windows, w)
	}
	res.FinalInFlight = sec.Int()
	res.FinalWeight = sec.Float64()
	res.Lost = sec.Int64()
	res.Delayed = sec.Int64()
	res.Duplicated = sec.Int64()
	res.Deduped = sec.Int64()
	res.Retries = sec.Int64()
	res.Timeouts = sec.Int64()
	res.PartitionBlocked = sec.Int64()
	res.Bounced = sec.Int64()
	res.BouncedWeight = sec.Float64()
	res.Quarantined = sec.Int()
	res.FinalLedger = sec.Int()
	res.FinalLedgerWeight = sec.Float64()
	decodeHist(sec, &res.Sojourn)
	decodeHist(sec, &res.Hops)
	decodeHist(sec, &res.RetryLat)
	return sec.Err()
}
