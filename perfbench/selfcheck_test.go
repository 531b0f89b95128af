package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-check compares against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables: BENCHMARK.json names exactly the workloads
// and metrics (with units) the command implements.
func TestSpecMatchesTables(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames())
	}
	var e2e, layer []metricDef
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", layer, perLayer)
	}
}

// wantChecks lists the correctness checks every run of a workload must
// make; traced runs of sim-10k add the traced-versus-untraced pair.
var wantChecks = map[string][]string{
	"sim-10k": {"sim.finish_conservation"},
	"fleet-10k": {"fleet.resume_round", "fleet.finish_conservation", "fleet.twin_finish_conservation",
		"fleet.w1_eq_w2", "fleet.churn_ran", "fleet.faults_ran"},
	"live-ingest":  {"live.all_placed", "live.finish_conservation", "live.arrived_eq_accepted", "live.replay_eq_live"},
	"paper-static": {"static.balanced"},
}

var wantTracedChecks = map[string][]string{
	"sim-10k": {"sim.control_finish_conservation", "sim.traced_eq_untraced"},
}

// TestToyRuns runs every workload at toy size, untraced and traced, and
// checks the printed line: correct, nothing failed, every metric of
// the mode present with its unit, every correctness check made.
func TestToyRuns(t *testing.T) {
	s := readSpec(t)
	procs := runtime.GOMAXPROCS(0)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			b, err := newBench(7, 500*time.Millisecond, traced, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(w.Name, b)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if got := runtime.GOMAXPROCS(0); got != procs {
				t.Errorf("%s traced=%v: left GOMAXPROCS at %d, was %d", w.Name, traced, got, procs)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, b.checks)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
			}
			want := wantChecks[w.Name]
			if traced {
				want = append(append([]string(nil), want...), wantTracedChecks[w.Name]...)
			}
			for _, c := range want {
				found := false
				for _, got := range res.Checks {
					found = found || got == c
				}
				if !found {
					t.Errorf("%s traced=%v: check %s did not run (ran %v)", w.Name, traced, c, res.Checks)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s: result line %s, want exactly correct, attempted, failed, metrics", w.Name, line)
			}
		}
	}
}

// TestFailedCheckFailsRun: a failing correctness check makes the run
// incorrect and counts as a failed operation.
func TestFailedCheckFailsRun(t *testing.T) {
	b, err := newBench(1, time.Second, false, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		b.e2e[d.Name] = 1
	}
	b.check("ok", true, "")
	b.check("broken", false, "boom")
	res, err := b.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("got correct=%v failed=%d attempted=%d, want false, 1, 2", res.Correct, res.Failed, res.Attempted)
	}
}

// TestMissingMetricIsAnError: an end-to-end metric that was not
// measured, or reads 0, fails the run instead of printing.
func TestMissingMetricIsAnError(t *testing.T) {
	b, err := newBench(1, time.Second, false, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.op(nil)
	b.e2e["setup_s"] = 1
	if _, err := b.result(); err == nil {
		t.Error("result with unmeasured metrics succeeded")
	}
}

// TestCalibration: the calibration loop takes measurable CPU time and
// keeps it, and scaling maps the reference loop time to the identity.
func TestCalibration(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if d := c.measure(); !(d > 0) {
			t.Fatalf("calibration loop took %v ms", d)
		}
	}
	if len(c.ms) != 3 {
		t.Errorf("kept %d loop times, want 3", len(c.ms))
	}
	if got := scale(40, calRefMs); got != 40 {
		t.Errorf("scale(40, calRefMs) = %v, want 40", got)
	}
	if got := scale(40, 2*calRefMs); got != 20 {
		t.Errorf("scale(40, 2*calRefMs) = %v, want 20", got)
	}
}
