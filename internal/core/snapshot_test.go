package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/task"
)

// roundTripState writes s through a snapshot writer and restores the
// bytes into into, returning the restore's error.
func roundTripState(t *testing.T, s, into *State) error {
	t.Helper()
	w := snapshot.NewWriter()
	w.Reset()
	w.Begin("state")
	s.Snapshot(w)
	w.End()
	r, err := snapshot.NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("state")
	into.Snapshot(r)
	r.End()
	return r.Close()
}

// TestStateSnapshotChecks pins State's walk: a consistent state
// round-trips, while a location map shorter than the task set's ID
// space or a stacked task outside it fails the restore instead of
// loading into a state that indexes out of range later.
func TestStateSnapshotChecks(t *testing.T) {
	g := graph.Complete(4)
	ts := task.NewSet([]float64{1, 2, 3, 4, 5, 6})
	build := func() *State { return NewState(g, ts, []int{0, 1, 2, 3, 0, 1}, AboveAverage{Eps: 0.5}, 1) }

	s, fresh := build(), build()
	s.round = 7
	if err := roundTripState(t, s, fresh); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	if fresh.Round() != 7 || fresh.Load(0) != s.Load(0) || fresh.Load(1) != s.Load(1) {
		t.Fatalf("restored round %d loads %v/%v, want 7 and %v/%v",
			fresh.Round(), fresh.Load(0), fresh.Load(1), s.Load(0), s.Load(1))
	}

	cases := []struct {
		name     string
		corrupt  func(s *State)
		fragment string
	}{
		{"short location map", func(s *State) { s.loc = s.loc[:3] }, "location map"},
		{"stacked task outside the ID space", func(s *State) {
			s.Stack(2).Push(task.Task{ID: 6, Weight: 1})
		}, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := build()
			tc.corrupt(s)
			err := roundTripState(t, s, build())
			if err == nil || !strings.Contains(err.Error(), tc.fragment) {
				t.Fatalf("restore error = %v, want one mentioning %q", err, tc.fragment)
			}
		})
	}
}
