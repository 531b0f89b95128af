// Command perfbench is the repository's benchmark. One invocation runs
// one workload from a seed and prints, as its last line, one JSON
// object {correct, attempted, failed, metrics}:
//
//	perfbench --workload sim-10k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (tracing and
// telemetry off, one core: GOMAXPROCS=1 and Workers=1 engines, times
// in reference-scaled CPU time, see cputime.go). With --trace 1 the same workload runs with spans
// around every call into a layer and the engine's phase telemetry on,
// and the metrics are the per-layer ones. Every input is generated from
// the seed; the program under test receives only the generated inputs.
// A failed correctness check prints the result with correct=false and
// exits 1. See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir is where a run writes round logs and, when traced, its spans,
// relative to the checkout root run.sh starts it in.
const workDir = ".bench_build/perfbench"

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every untraced run reports, on every
// workload; README.md gives each workload's definition of an op.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"op_ref_ms_p50", "ms"},
	{"op_ref_ms_p90", "ms"},
}

// perLayer are the metrics every traced run reports. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"bench.ops_timed", "count"},
	{"bench.failed_frac", "fraction"},
	{"bench.calib_ms", "ms"},
	{"graph.build_s", "s"},
	{"walk.kernel_s", "s"},
	{"dynamic.new_engine_s", "s"},
	{"dynamic.warmup_s", "s"},
	{"dynamic.arrivals_ms", "ms"},
	{"dynamic.service_ms", "ms"},
	{"dynamic.tune_ms", "ms"},
	{"dynamic.propose_ms", "ms"},
	{"dynamic.deliver_ms", "ms"},
	{"dynamic.evacuate_ms", "ms"},
	{"dynamic.unattributed_ms", "ms"},
	{"dynamic.barrier_idle_ms", "ms"},
	{"dynamic.shard_skew", "ratio"},
	{"dynamic.arrivals", "tasks/round"},
	{"dynamic.departures", "tasks/round"},
	{"dynamic.migrations", "moves/round"},
	{"dynamic.moved_weight", "weight/round"},
	{"dynamic.bounced", "tasks/round"},
	{"dynamic.in_flight_mean", "tasks"},
	{"dynamic.overload_frac", "fraction"},
	{"dynamic.alloc_bytes_per_round", "bytes"},
	{"dynamic.gc_per_1k_rounds", "count"},
	{"trace.sojourn_p99_rounds", "rounds"},
	{"par.w1_round_ms_p50", "ms"},
	{"par.w2_round_ms_p50", "ms"},
	{"par.speedup_w2", "ratio"},
	{"recovery.evac_tasks_per_event", "tasks"},
	{"recovery.drain_rounds_p50", "rounds"},
	{"recovery.peak_overload_p50", "fraction"},
	{"faults.lost_per_1k_rounds", "count"},
	{"faults.retries_per_1k_rounds", "count"},
	{"faults.timeouts_per_1k_rounds", "count"},
	{"faults.deduped_per_1k_rounds", "count"},
	{"faults.timeout_ratio", "ratio"},
	{"faults.retry_lat_p99_rounds", "rounds"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.resume_s", "s"},
	{"snapshot.resume_allocs", "count"},
	{"serve.ack_ms_p50", "ms"},
	{"serve.ack_ms_p99", "ms"},
	{"serve.place_ms_p50", "ms"},
	{"serve.place_ms_p99", "ms"},
	{"serve.status_ms_p50", "ms"},
	{"serve.reconfig_ms_p50", "ms"},
	{"serve.max_rate_tasks_per_s", "tasks/s"},
	{"serve.rounds_per_s", "1/s"},
	{"serve.batch_tasks_p50", "tasks"},
	{"serve.batch_tasks_p99", "tasks"},
	{"serve.pending_p99", "tasks"},
	{"serve.log_bytes_per_round", "bytes"},
	{"serve.rejected_frac", "fraction"},
	{"serve.gen_late_ms_max", "ms"},
	{"core.solve_s", "s"},
	{"core.balance_rounds", "rounds"},
	{"core.run_ms_p50", "ms"},
	{"core.run_ms_p90", "ms"},
	{"core.user.run_ms_p50", "ms"},
	{"core.resource.run_ms_p50", "ms"},
	{"core.ms_per_round", "ms"},
	{"core.migrations_per_run", "count"},
	{"core.moved_weight_per_run", "weight"},
	{"obs.trace_overhead_frac", "fraction"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"sim-10k":      simWorkload,
	"fleet-10k":    fleetWorkload,
	"live-ingest":  liveWorkload,
	"paper-static": staticWorkload,
}

// bench is the state of one run: its settings, what it measured and
// the outcome of every correctness check.
type bench struct {
	seed    uint64
	seconds time.Duration
	toy     bool        // toy sizes for the self-check
	spans   *spanLog    // nil in untraced runs
	cal     *calibrator // the host-speed calibration loop
	workDir string      // round logs and span files go here

	e2e   map[string]float64
	layer map[string]float64

	attempted, failed int64
	checks            []check
}

// check is one correctness check and its outcome.
type check struct {
	Name string
	OK   bool
	Msg  string
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []string          `json:"-"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(seed uint64, seconds time.Duration, traced, toy bool, workDir string) (*bench, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	b := &bench{seed: seed, seconds: seconds, toy: toy, workDir: workDir, cal: cal,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		b.spans = newSpanLog()
	}
	return b, nil
}

func (b *bench) traced() bool { return b.spans != nil }

// workers is the Workers setting of the engines a run times: 1 in the
// single-core untraced runs, 2 in traced runs, which also measure how
// the second worker pays off.
func (b *bench) workers() int {
	if b.traced() {
		return 2
	}
	return 1
}

// op counts one attempted operation and, when err is non-nil, one
// failure. It returns err unchanged.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

// check records a correctness check; a failing one also counts as a
// failed operation.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Msg = fmt.Sprintf(format, args...)
		b.failed++
	}
	b.attempted++
	b.checks = append(b.checks, c)
}

// result assembles the output line: every end-to-end metric in an
// untraced run, every per-layer metric in a traced one.
func (b *bench) result() (result, error) {
	r := result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, c := range b.checks {
		r.Checks = append(r.Checks, c.Name)
		if !c.OK {
			r.Correct = false
		}
	}
	if b.attempted == 0 {
		return r, fmt.Errorf("no operation was attempted")
	}
	if b.traced() {
		b.layer["bench.failed_frac"] = float64(b.failed) / float64(b.attempted)
		b.layer["bench.calib_ms"] = median(b.cal.ms)
		for _, d := range perLayer {
			v := b.layer[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return r, fmt.Errorf("per-layer metric %s is %v", d.Name, v)
			}
			r.Metrics[d.Name] = metric{v, d.Unit}
		}
		return r, nil
	}
	for _, d := range endToEnd {
		v, ok := b.e2e[d.Name]
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			return r, fmt.Errorf("end-to-end metric %s is %v (measured: %v)", d.Name, v, ok)
		}
		r.Metrics[d.Name] = metric{v, d.Unit}
	}
	return r, nil
}

// runWorkload runs one workload and returns its result line.
func runWorkload(name string, b *bench) (result, error) {
	fn, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if !b.traced() {
		// On a shared host a second core's activity (the runtime's
		// spinning threads, the collector, pool barriers) changed the
		// CPU time of an op by up to 2x; one core keeps the end-to-end
		// figures about the program's own work.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if err := fn(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if b.traced() {
		if err := b.spans.write(filepath.Join(b.workDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", name, b.seed)); err != nil {
			return result{}, err
		}
	}
	return b.result()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "measurement time of the run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	b, err := newBench(*seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, false, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runWorkload(*workload, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, c := range b.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.Name, c.Msg)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
