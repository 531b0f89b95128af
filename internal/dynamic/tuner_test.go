package dynamic

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/task"
	"repro/internal/walk"
)

// TestSelfTunerDownAware is the regression test for the churn bias:
// with half the fleet down, the decaying load averages diffuse over
// the full graph, so an unrenormalised estimator converges to W/n and
// the thresholds sag to (1+ε)·W/n + wmax. The up-mass renormalisation
// must instead target the live capacity's W/n_up. Here n = 40,
// n_up = 20 and every up resource holds load 10, so the correct
// threshold is (1.5)·10 + 10 = 25 while the biased estimator would
// settle at (1.5)·5 + 10 = 17.5 — far enough apart that the assertion
// window is unambiguous.
func TestSelfTunerDownAware(t *testing.T) {
	n := 40
	g := graph.Complete(n)
	weights := make([]float64, n/2)
	placement := make([]int, n/2)
	for i := range weights {
		weights[i] = 10 // one weight-10 task per up resource
		placement[i] = i
	}
	ts := task.NewSet(weights)
	s := core.NewState(g, ts, placement, core.FixedVector{V: make([]float64, n)}, 1)
	up := NewUpSet(n)
	for r := n / 2; r < n; r++ {
		up.Down(r)
	}

	tun := NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(g)), 0.5)
	tun.Steps = 16 // complete graph mixes in one step; a few settle rounding
	var thr []float64
	for round := 0; round < 300; round++ {
		if v := tun.Refresh(round, s, up, nil); v != nil {
			thr = v
		}
	}
	if thr == nil {
		t.Fatal("tuner never refreshed")
	}
	want := (1+0.5)*10 + 10 // (1+eps)·W/n_up + wmax
	for i := 0; i < up.N(); i++ {
		r := up.At(i)
		if math.Abs(thr[r]-want) > 1 {
			t.Fatalf("resource %d threshold %v, want ≈ %v (the W/n-biased estimator gives 17.5)",
				r, thr[r], want)
		}
	}
}

// TestSelfTunerChurnlessUnchanged pins the churnless fast path: while
// no resource has ever been down, the up-mass renormalisation must be
// inert — thresholds converge to (1+ε)·W/n + wmax exactly as before.
func TestSelfTunerChurnlessUnchanged(t *testing.T) {
	n := 30
	g := graph.Complete(n)
	weights := make([]float64, n)
	placement := make([]int, n)
	for i := range weights {
		weights[i] = 4
		placement[i] = i
	}
	ts := task.NewSet(weights)
	s := core.NewState(g, ts, placement, core.FixedVector{V: make([]float64, n)}, 1)
	up := NewUpSet(n)

	tun := NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(g)), 0.5)
	var thr []float64
	for round := 0; round < 200; round++ {
		if v := tun.Refresh(round, s, up, nil); v != nil {
			thr = v
		}
	}
	want := 1.5*4 + 4
	for r := range thr {
		if math.Abs(thr[r]-want) > 0.1 {
			t.Fatalf("churnless threshold[%d] = %v, want ≈ %v", r, thr[r], want)
		}
	}
}

// TestSelfTunerProportionalTargets is the heterogeneous steady-state
// regression test of the acceptance criteria: on a mixed-speed fleet
// with part of it down, the speed-aware tuner's per-resource
// thresholds must converge to within 5% of the analytic
// core.Proportional target (1+ε)·(W/S_up)·s_r + wmax. The setup places
// load exactly speed-proportionally (the protocol's fixed point), so
// the only error left is the tuner's own estimation error — EWMA lag
// plus finite diffusion — which the 5% band bounds.
func TestSelfTunerProportionalTargets(t *testing.T) {
	n := 40
	g := graph.Complete(n)
	speeds := make([]float64, n)
	for r := range speeds {
		speeds[r] = []float64{1, 2, 5, 10}[r%4]
	}
	// Resources 30..39 are down; their speed classes leave S_up too.
	sUp := 0.0
	for r := 0; r < 30; r++ {
		sUp += speeds[r]
	}
	// One task per up resource, weight 2·s_r: W = 2·S_up, and every up
	// resource already sits at its proportional share (W/S_up)·s_r.
	weights := make([]float64, 30)
	placement := make([]int, 30)
	for r := 0; r < 30; r++ {
		weights[r] = 2 * speeds[r]
		placement[r] = r
	}
	ts := task.NewSet(weights)
	s := core.NewState(g, ts, placement, core.FixedVector{V: make([]float64, n)}, 1)
	up := NewUpSet(n)
	for r := 30; r < n; r++ {
		up.Down(r)
	}

	const eps = 0.5
	tun := NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(g)), eps)
	tun.Steps = 16
	tun.SetSpeeds(speeds)
	var thr []float64
	for round := 0; round < 400; round++ {
		if v := tun.Refresh(round, s, up, nil); v != nil {
			thr = v
		}
	}
	if thr == nil {
		t.Fatal("tuner never refreshed")
	}
	w, wmax := ts.W(), ts.WMax()
	for i := 0; i < up.N(); i++ {
		r := up.At(i)
		want := (1+eps)*(w/sUp)*speeds[r] + wmax
		if math.Abs(thr[r]-want) > 0.05*want {
			t.Fatalf("resource %d (speed %g): threshold %v, want %v ± 5%% — tuner missed the (W/S_up)·s_r target",
				r, speeds[r], thr[r], want)
		}
	}
	// Cross-check against the centralised shape: the oracle tuner must
	// land on core.Proportional restricted to the up capacity exactly.
	oracle := &OracleTuner{Eps: eps}
	oracle.SetSpeeds(speeds)
	othr := oracle.Refresh(0, s, up, nil)
	for i := 0; i < up.N(); i++ {
		r := up.At(i)
		want := (1+eps)*(w/sUp)*speeds[r] + wmax
		if math.Abs(othr[r]-want) > 1e-9*want {
			t.Fatalf("oracle resource %d: threshold %v, want exactly %v", r, othr[r], want)
		}
	}
}

// TestSelfTunerHomogeneousSpeedsMatchUniform pins the degenerate case:
// an explicit all-ones speed profile must land on the same thresholds
// as the no-speeds tuner (the hetero formula reduces to the uniform
// one when s_r = 1), so opting into the speed-aware path on a
// homogeneous fleet costs accuracy nothing.
func TestSelfTunerHomogeneousSpeedsMatchUniform(t *testing.T) {
	n := 30
	g := graph.Complete(n)
	weights := make([]float64, n)
	placement := make([]int, n)
	for i := range weights {
		weights[i] = 4
		placement[i] = i
	}
	ts := task.NewSet(weights)
	s := core.NewState(g, ts, placement, core.FixedVector{V: make([]float64, n)}, 1)
	up := NewUpSet(n)

	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	tun := NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(g)), 0.5)
	tun.SetSpeeds(ones)
	var thr []float64
	for round := 0; round < 200; round++ {
		if v := tun.Refresh(round, s, up, nil); v != nil {
			thr = v
		}
	}
	want := 1.5*4 + 4
	for r := range thr {
		if math.Abs(thr[r]-want) > 0.1 {
			t.Fatalf("all-ones speed threshold[%d] = %v, want ≈ %v", r, thr[r], want)
		}
	}
}

// TestSelfTunerRecoversAfterRejoin drives a down phase and then brings
// the fleet back: the renormalised estimate must track n_up both ways
// instead of latching onto the churn-era value.
func TestSelfTunerRecoversAfterRejoin(t *testing.T) {
	n := 20
	g := graph.Complete(n)
	weights := make([]float64, n)
	placement := make([]int, n)
	for i := range weights {
		weights[i] = 6
		placement[i] = i
	}
	ts := task.NewSet(weights)
	s := core.NewState(g, ts, placement, core.FixedVector{V: make([]float64, n)}, 1)
	up := NewUpSet(n)

	tun := NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(g)), 0.5)
	tun.Steps = 16

	// Phase 1: half the fleet leaves; their load moves to resource 0
	// (crudely: just evacuate+attach like the engine's churn step).
	for r := n / 2; r < n; r++ {
		up.Down(r)
		for _, tk := range s.Evacuate(r) {
			s.Attach(tk, r-n/2)
		}
	}
	for round := 0; round < 300; round++ {
		tun.Refresh(round, s, up, nil)
	}
	// Phase 2: everyone rejoins and the load respreads.
	for r := n / 2; r < n; r++ {
		up.Up(r)
	}
	for r := 0; r < n/2; r++ {
		tasks := s.Evacuate(r)
		s.Attach(tasks[0], r)
		s.Attach(tasks[1], r+n/2)
	}
	var thr []float64
	for round := 0; round < 600; round++ {
		if v := tun.Refresh(round, s, up, nil); v != nil {
			thr = v
		}
	}
	want := 1.5*6 + 6 // back to W/n_up with n_up = n
	for r := range thr {
		if math.Abs(thr[r]-want) > 0.5 {
			t.Fatalf("post-rejoin threshold[%d] = %v, want ≈ %v", r, thr[r], want)
		}
	}
}
