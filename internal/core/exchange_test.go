package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
)

// exchangeState builds a state with a clumped cross-shard move set:
// tasks pulled off several source resources with destinations spread
// over the whole range so every shard both sends and receives.
func exchangeState(t *testing.T) (*State, []Migration) {
	t.Helper()
	r := rng.NewSeeded(123)
	g := graph.Complete(24)
	ws := make([]float64, 300)
	for i := range ws {
		ws[i] = 1 + 9*r.Float64()
	}
	ts := task.NewSet(ws)
	placement := make([]int, len(ws))
	for i := range placement {
		placement[i] = i % 3 // pile everything on resources 0..2
	}
	s := NewState(g, ts, placement, AboveAverage{Eps: 0.5}, 7)
	var moves []Migration
	for src := 0; src < 3; src++ {
		idx := make([]int, 0, 60)
		for i := 0; i < 60; i++ {
			idx = append(idx, i)
		}
		for _, tk := range s.removeForMigration(src, idx, nil) {
			moves = append(moves, Migration{Task: tk, Dest: int32((tk.ID * 7) % 24)})
		}
	}
	return s, moves
}

type exchangeOutcome struct {
	stats StepStats
	round int
	loads []float64
	order [][]int
	locs  []int
}

func captureOutcome(s *State, st StepStats) exchangeOutcome {
	o := exchangeOutcome{stats: st, round: s.Round(), loads: s.Loads()}
	for r := 0; r < s.N(); r++ {
		var ids []int
		for _, tk := range s.Stack(r).Tasks() {
			ids = append(ids, tk.ID)
		}
		o.order = append(o.order, ids)
	}
	for id := 0; id < s.Tasks().M(); id++ {
		o.locs = append(o.locs, s.Location(id))
	}
	return o
}

// TestExchangeMatchesDeliverMigrations is the core equivalence check:
// for every shard-boundary layout (including uneven cuts) and every way the moves are scattered over source
// shards, the exchange must reproduce the sequential DeliverMigrations
// outcome exactly — stacks, locations, round counter, and the float
// rounding of MovedWeight.
func TestExchangeMatchesDeliverMigrations(t *testing.T) {
	s, moves := exchangeState(t)
	ref := captureOutcome(s, s.DeliverMigrations(append([]Migration(nil), moves...)))
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("reference state: %v", err)
	}

	layouts := [][]int{
		{0, 24},                       // one shard: the sequential degenerate case
		{0, 12, 24},                   // even split
		{0, 6, 12, 18, 24},            // four even shards
		{0, 1, 3, 20, 24},             // heavily skewed cuts
		{0, 5, 9, 14, 17, 21, 23, 24}, // seven uneven shards
	}
	r := rng.NewSeeded(5)
	for _, bounds := range layouts {
		w := len(bounds) - 1
		s2, moves2 := exchangeState(t)
		x := NewExchange(bounds)
		// Scatter the moves over source shards at random: which worker
		// proposed a move must not matter.
		lanes := make([][]Migration, w)
		for _, mv := range moves2 {
			i := r.Intn(w)
			lanes[i] = append(lanes[i], mv)
		}
		for i := 0; i < w; i++ {
			x.Route(i, lanes[i])
		}
		for j := 0; j < w; j++ {
			x.DeliverShard(s2, j)
		}
		got := captureOutcome(s2, x.Finish(s2, true))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("bounds %v: exchange diverges from DeliverMigrations:\ngot  %+v\nwant %+v", bounds, got, ref)
		}
		if err := s2.CheckInvariants(); err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
	}
}

// TestExchangeEmptyBatchAndRoundAdvance pins the bookkeeping edges: an
// all-empty batch delivers nothing, Finish(advance=false) — the
// evacuation mode — leaves the round counter alone, and a reused
// exchange does not leak the previous batch.
func TestExchangeEmptyBatchAndRoundAdvance(t *testing.T) {
	s, moves := exchangeState(t)
	x := NewExchange([]int{0, 8, 16, 24})
	// Batch 1: real moves, no round advance (evacuation mode).
	x.Route(0, moves)
	x.Route(1, nil)
	x.Route(2, nil)
	for j := 0; j < 3; j++ {
		x.DeliverShard(s, j)
	}
	st := x.Finish(s, false)
	if st.Migrations != len(moves) {
		t.Fatalf("delivered %d of %d moves", st.Migrations, len(moves))
	}
	if s.Round() != 0 {
		t.Fatalf("Finish(advance=false) advanced the round to %d", s.Round())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Batch 2: empty everywhere, with a round advance.
	for i := 0; i < 3; i++ {
		x.Route(i, nil)
	}
	for j := 0; j < 3; j++ {
		x.DeliverShard(s, j)
	}
	st = x.Finish(s, true)
	if st.Migrations != 0 || st.MovedWeight != 0 {
		t.Fatalf("empty batch delivered %+v", st)
	}
	if s.Round() != 1 {
		t.Fatalf("round counter %d after one advancing batch", s.Round())
	}
}
