// Package obs is the streaming observability layer of the open-system
// engine: a bounded ring-buffer pub/sub broker (the logbroker pattern)
// carrying typed telemetry events — fleet, per-shard and per-failure-
// domain window statistics, delivery-exchange lane occupancy, per-shard
// phase timings, and failure-recovery episode transitions — plus the
// export surfaces built on top of it (Prometheus text, expvar, a JSONL
// event sink for offline analysis).
//
// The broker decouples subscribers from the engine's round loop: the
// engine publishes snapshot copies from its sequential sections, each
// subscription buffers them in its own bounded ring, and a subscriber
// that falls behind loses events according to an explicit drop policy
// (counted, never blocking the publisher). Publishing a fixed-size
// Event value into pre-sized rings allocates nothing, so the engine's
// two standing invariants survive observation: steady-state rounds
// still allocate 0 B, and — because events are derived from state and
// never feed back into it — replay stays bit-for-bit deterministic for
// any worker count with subscribers attached.
package obs

import "repro/internal/trace"

// Kind discriminates the typed events a Broker carries.
type Kind uint8

const (
	// KindWindow carries the fleet-wide WindowStats of one completed
	// metrics window.
	KindWindow Kind = iota + 1
	// KindShardWindow carries one worker shard's window statistics
	// (snapshot over the shard's resource range plus per-shard traffic
	// rates). One event per shard per window, shard index ascending.
	KindShardWindow
	// KindDomainWindow carries one failure domain's (rack or zone)
	// window snapshot. One event per domain per window, level by level,
	// domain index ascending.
	KindDomainWindow
	// KindLanes carries one destination shard's inbound
	// delivery-exchange move total since the previous telemetry report
	// — the backpressure signal that shows a skewed migration pattern
	// before it serialises the destination merge.
	KindLanes
	// KindShardCost carries one shard's resource range and its
	// accumulated measured phase cost since the previous telemetry
	// report — the per-shard load-imbalance signal.
	KindShardCost
	// KindPhase carries one shard's per-phase wall-clock nanos since
	// the previous telemetry report (Shard == -1 carries the engine's
	// sequential phases: arrivals and the tuner refresh).
	KindPhase
	// KindRecoveryStart marks a scripted-failure round opening a
	// recovery episode.
	KindRecoveryStart
	// KindRecoveryEnd marks a recovery episode closing — drained back
	// to its pre-failure baseline, or censored by the next failure or
	// the run's end.
	KindRecoveryEnd
	// KindFaults carries the message-fault layer's cumulative counters
	// plus the live in-flight ledger level, on the telemetry cadence —
	// the drop/retry/timeout signal next to the lane totals, including
	// the bounce-evacuation count that used to fold silently into the
	// re-home totals.
	KindFaults
	// KindQuarantine marks a flapping-quarantine transition: a machine
	// that flapped past the hysteresis bound entering its cool-off, or
	// rejoining when the cool-off expires.
	KindQuarantine
	// KindAlert marks a domain-level SLO transition: a rack or zone
	// whose per-window overload fraction exceeded the configured budget
	// for K consecutive windows (firing), or dropped back under it
	// (clearing).
	KindAlert
	// KindCheckpoint marks a completed engine checkpoint: the round it
	// captured and the snapshot size.
	KindCheckpoint
	// KindTrace carries one sampled task-lifecycle record (arrival,
	// migration hop, fault episode, departure). Published from the
	// engine's sequential sections in canonical order, so the stream is
	// identical for every worker count.
	KindTrace
	// KindTraceHist carries the cumulative lifecycle histograms
	// (sojourn rounds, hops per task, ledger resolution latency) on the
	// window cadence — the always-on aggregate the Prometheus exporter
	// turns into histogram series.
	KindTraceHist

	numKinds
)

var kindNames = [numKinds]string{
	KindWindow:        "window",
	KindShardWindow:   "shard_window",
	KindDomainWindow:  "domain_window",
	KindLanes:         "lanes",
	KindShardCost:     "shard_cost",
	KindPhase:         "phase",
	KindRecoveryStart: "recovery_start",
	KindRecoveryEnd:   "recovery_end",
	KindFaults:        "faults",
	KindQuarantine:    "quarantine",
	KindAlert:         "alert",
	KindCheckpoint:    "checkpoint",
	KindTrace:         "trace",
	KindTraceHist:     "trace_hist",
}

// String returns the wire name of the kind (the JSONL "kind" field).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts Kind.String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k := Kind(1); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// KindMask selects event kinds for a subscription; the zero mask means
// all kinds.
type KindMask uint16

// Mask builds a KindMask selecting exactly the given kinds.
func Mask(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether the mask selects kind k (a zero mask selects
// everything).
func (m KindMask) Has(k Kind) bool { return m == 0 || m&(1<<k) != 0 }

// PhaseID names one timed slice of the engine's round pipeline.
type PhaseID uint8

const (
	// PhaseArrivals is the sequential arrival-placement section
	// (engine-level: reported on the Shard == -1 phase event).
	PhaseArrivals PhaseID = iota
	// PhaseService is the sharded service-and-departures sweep.
	PhaseService
	// PhaseTune is the online threshold refresh (engine-level; the
	// pooled tuner's internal sharding is not broken out).
	PhaseTune
	// PhasePropose is the sharded protocol propose sweep (accepted
	// moves routed into the exchange).
	PhasePropose
	// PhaseDeliver is the sharded destination-merge delivery phase —
	// both protocol deliveries and evacuation deliveries run through
	// it, so its nanos cover both.
	PhaseDeliver
	// PhaseEvac is the sharded evacuation pop-and-route phase of
	// mass-failure rounds.
	PhaseEvac

	// NumPhases sizes per-phase accumulator arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseArrivals: "arrivals",
	PhaseService:  "service",
	PhaseTune:     "tune",
	PhasePropose:  "propose",
	PhaseDeliver:  "deliver",
	PhaseEvac:     "evacuate",
}

// String returns the phase's wire and metric-label name.
func (p PhaseID) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// WindowStats summarises one metrics window of an open-system run.
// Rates are per-round time averages over the window; load figures are
// a snapshot over up resources at the window's last round.
type WindowStats struct {
	// Start, End delimit the round range [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// OverloadFrac is the time-averaged fraction of up resources whose
	// load exceeded their threshold.
	OverloadFrac float64 `json:"overload_frac"`
	// MigrationRate is protocol migrations per round; RehomeRate counts
	// churn re-homes plus bounced deliveries per round.
	MigrationRate float64 `json:"migration_rate"`
	RehomeRate    float64 `json:"rehome_rate"`
	// ArrivalRate / DepartureRate are tasks per round.
	ArrivalRate   float64 `json:"arrival_rate"`
	DepartureRate float64 `json:"departure_rate"`
	// MeanLoad / MaxLoad / P99Load snapshot the load distribution over
	// up resources at the window's last round.
	MeanLoad float64 `json:"mean_load"`
	MaxLoad  float64 `json:"max_load"`
	P99Load  float64 `json:"p99_load"`
	// P99LoadPerSpeed is the 99th percentile of load divided by
	// resource speed — the quantity speed-proportional thresholds
	// equalise on heterogeneous fleets. Equal to P99Load on homogeneous
	// fleets (all speeds 1).
	P99LoadPerSpeed float64 `json:"p99_load_per_speed"`
	// InFlight / InFlightWeight count live tasks and their total weight
	// at the window's end; UpResources is the up count at that round.
	InFlight       int     `json:"in_flight"`
	InFlightWeight float64 `json:"in_flight_weight"`
	UpResources    int     `json:"up_resources"`
}

// ShardWindowStats is the per-worker-shard variant of WindowStats: the
// same window cadence, restricted to one shard's contiguous resource
// range [Lo, Hi). Load figures snapshot the shard's up resources at
// the window's last round; the rates count traffic attributed to the
// shard over the window (arrivals dispatched into it, departures
// served by it, and exchange deliveries — protocol migrations plus
// evacuation re-homes — merged into it). Shard boundaries are the
// engine's fixed equal-count split.
type ShardWindowStats struct {
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Start int `json:"start"`
	End   int `json:"end"`
	// OverloadFrac is the fraction of the shard's up resources over
	// threshold at the window's last round (a snapshot, unlike the
	// fleet window's time average).
	OverloadFrac  float64 `json:"overload_frac"`
	ArrivalRate   float64 `json:"arrival_rate"`
	DepartureRate float64 `json:"departure_rate"`
	// InboundRate is delivery-exchange moves merged into the shard per
	// round: protocol migrations plus evacuation re-homes.
	InboundRate     float64 `json:"inbound_rate"`
	MeanLoad        float64 `json:"mean_load"`
	MaxLoad         float64 `json:"max_load"`
	P99Load         float64 `json:"p99_load"`
	P99LoadPerSpeed float64 `json:"p99_load_per_speed"`
	InFlight        int     `json:"in_flight"`
	InFlightWeight  float64 `json:"in_flight_weight"`
	UpResources     int     `json:"up_resources"`
}

// DomainWindowStats is the per-failure-domain variant of WindowStats:
// one event per rack (level "rack") and per zone (level "zone") per
// window, snapshotting the domain's load at the window's last round —
// the per-domain signal that prices what a rack loss costs.
type DomainWindowStats struct {
	// Level names the domain hierarchy level ("rack", "zone").
	Level string `json:"level"`
	// Domain is the domain's index within its level; Name its label.
	Domain int    `json:"domain"`
	Name   string `json:"name"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	// OverloadFrac is the fraction of the domain's up resources over
	// threshold at the window's last round (NaN-free: 0 when the whole
	// domain is down).
	OverloadFrac   float64 `json:"overload_frac"`
	MeanLoad       float64 `json:"mean_load"`
	MaxLoad        float64 `json:"max_load"`
	InFlightWeight float64 `json:"in_flight_weight"`
	// UpResources / DownResources count the domain's membership split.
	UpResources   int `json:"up_resources"`
	DownResources int `json:"down_resources"`
}

// LaneStats is one destination shard's inbound exchange occupancy
// since the previous telemetry report.
type LaneStats struct {
	// Shard is the DESTINATION shard index.
	Shard int `json:"shard"`
	// Inbound is the number of moves routed into the shard's lanes
	// (recorded at Route time, before the merge runs).
	Inbound int64 `json:"inbound"`
}

// ShardStat reports one shard's resource range and the wall-clock
// nanos its sharded phases (service, propose, deliver, evacuate)
// consumed since the previous report.
type ShardStat struct {
	// Lo, Hi delimit the resource range [Lo, Hi) the shard owned.
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Nanos int64 `json:"nanos"`
}

// ShardCost is the event payload wrapping ShardStat with its shard
// index.
type ShardCost struct {
	Shard int `json:"shard"`
	ShardStat
}

// PhaseStats carries one shard's per-phase wall-clock nanos since the
// previous telemetry report. Shard == -1 reports the engine's
// sequential phases (arrivals, tune); shard events carry the sharded
// phases (service, propose, deliver, evacuate).
type PhaseStats struct {
	Shard int              `json:"shard"`
	Nanos [NumPhases]int64 `json:"-"` // serialised per-phase by the JSONL codec
}

// RecoveryEvent describes a failure-recovery episode transition. Start
// events carry the failure round, loss count, evacuation load and
// pre-failure baseline; end events additionally carry the observed
// peak and the drain time (−1 when censored).
type RecoveryEvent struct {
	// Round is the failure round that opened the episode.
	Round int `json:"round"`
	// Downs counts resources a scripted event took down that round.
	Downs int `json:"downs"`
	// EvacTasks / EvacWeight total the failure round's evacuations.
	EvacTasks  int64   `json:"evac_tasks"`
	EvacWeight float64 `json:"evac_weight"`
	// BaselineOverload is the overload fraction of the round before
	// the failure — the level the episode must drain back to.
	BaselineOverload float64 `json:"baseline_overload"`
	// PeakOverload is the episode's worst per-round overload fraction
	// (end events only).
	PeakOverload float64 `json:"peak_overload"`
	// DrainRounds is rounds from failure to baseline (end events only;
	// −1 marks a censored episode).
	DrainRounds int `json:"drain_rounds"`
}

// FaultStats carries the message-fault layer's cumulative counters
// (monotone over the run) plus the in-flight ledger level at the
// report round.
type FaultStats struct {
	// Lost / Delayed / Duplicated count first-send fault draws;
	// Deduped counts duplicate copies dropped on arrival.
	Lost       int64 `json:"lost"`
	Delayed    int64 `json:"delayed"`
	Duplicated int64 `json:"duplicated"`
	Deduped    int64 `json:"deduped"`
	// Retries counts ledger retry attempts; Timeouts counts tasks that
	// gave up and re-homed at their source.
	Retries  int64 `json:"retries"`
	Timeouts int64 `json:"timeouts"`
	// PartitionBlocked counts migrations bounced at a partition cut.
	PartitionBlocked int64 `json:"partition_blocked"`
	// Bounced counts deliveries that landed on a down resource and
	// were evacuated by the engine's bounce step (nonzero even without
	// a fault plan — any churn round can bounce a migration).
	Bounced int64 `json:"bounced"`
	// Quarantined counts quarantine entries so far.
	Quarantined int64 `json:"quarantined"`
	// Ledger / LedgerWeight are the in-flight ledger level (tasks held
	// for retry or delay) at the report round.
	Ledger       int     `json:"ledger"`
	LedgerWeight float64 `json:"ledger_weight"`
}

// QuarantineEvent describes one flapping-quarantine transition.
type QuarantineEvent struct {
	// Resource is the flapping machine.
	Resource int `json:"resource"`
	// Entered is true when the machine enters its cool-off, false when
	// it rejoins.
	Entered bool `json:"entered"`
	// Flaps is the down-transition count that tripped the hysteresis
	// bound (enter events only).
	Flaps int `json:"flaps"`
	// Until is the round the cool-off expires (enter events only).
	Until int `json:"until"`
}

// AlertEvent describes one domain-level SLO transition. An alert
// fires when a domain's per-window overload fraction has exceeded the
// budget for K consecutive windows, and clears on the first window
// back under budget; both transitions publish one event.
type AlertEvent struct {
	// Level / Domain / Name identify the failure domain, matching the
	// DomainWindowStats labelling.
	Level  string `json:"level"`
	Domain int    `json:"domain"`
	Name   string `json:"name"`
	// OverloadFrac is the transition window's overload fraction;
	// Budget the configured limit it is judged against.
	OverloadFrac float64 `json:"overload_frac"`
	Budget       float64 `json:"budget"`
	// Windows counts the consecutive over-budget windows at the
	// transition (the K that tripped it on fire; the streak length the
	// clear ends).
	Windows int `json:"windows"`
	// Cleared is false for a firing alert, true for its resolution.
	Cleared bool `json:"cleared"`
}

// CheckpointEvent marks one completed engine checkpoint.
type CheckpointEvent struct {
	// Round is the boundary the snapshot captured: a resume from it
	// re-enters the loop at exactly this round.
	Round int `json:"round"`
	// Bytes is the encoded snapshot size.
	Bytes int `json:"bytes"`
}

// Event is the broker's fixed-size typed message: Kind selects which
// payload field is meaningful. A union of value structs (no pointers,
// no slices) keeps publishing a single struct copy, so the hot path
// never allocates and a delivered event can never alias live engine
// state.
type Event struct {
	Kind Kind
	// Seq is the broker-assigned publish sequence number (1-based,
	// monotone per broker) — gaps in a subscriber's view measure its
	// bounded-lag drops.
	Seq   uint64
	Round int // round the event describes (window events: End)

	Window       WindowStats       // KindWindow
	ShardWindow  ShardWindowStats  // KindShardWindow
	DomainWindow DomainWindowStats // KindDomainWindow
	Lane         LaneStats         // KindLanes
	ShardCost    ShardCost         // KindShardCost
	Phase        PhaseStats        // KindPhase
	Recovery     RecoveryEvent     // KindRecoveryStart / KindRecoveryEnd
	Faults       FaultStats        // KindFaults
	Quarantine   QuarantineEvent   // KindQuarantine
	Alert        AlertEvent        // KindAlert
	Checkpoint   CheckpointEvent   // KindCheckpoint
	Trace        trace.Record      // KindTrace
	TraceHist    trace.Snapshot    // KindTraceHist
}

// Domains labels every resource with a failure domain on one hierarchy
// level (racks, zones) for per-domain window events. Build one per
// level; recovery.Topology.ObsDomains converts an inventory directly.
type Domains struct {
	// Level names the hierarchy level, e.g. "rack" or "zone".
	Level string
	// Of maps resource → domain index on this level.
	Of []int32
	// Names labels the domains; len(Names) is the domain count and
	// every Of entry must index into it.
	Names []string
}

// Validate checks the labelling covers exactly n resources with
// in-range domain indices.
func (d Domains) Validate(n int) error {
	if d.Level == "" {
		return errString("obs: Domains.Level must be non-empty")
	}
	if len(d.Of) != n {
		return errString("obs: Domains.Of must label every resource")
	}
	if len(d.Names) == 0 {
		return errString("obs: Domains.Names must name at least one domain")
	}
	for _, k := range d.Of {
		if k < 0 || int(k) >= len(d.Names) {
			return errString("obs: Domains.Of entry out of range")
		}
	}
	return nil
}

// errString is a tiny allocation-free error type for validation.
type errString string

func (e errString) Error() string { return string(e) }
