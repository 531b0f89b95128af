package task

import (
	"fmt"

	"repro/internal/snapshot"
)

// Checkpoint walk for Set. The free list and the removed flags
// serialize verbatim — task-ID assignment is a pure function of the
// LIFO free-list order, so a resumed run hands out exactly the IDs the
// uninterrupted run would have. The weight aggregates (total, wmax,
// wmin) restore as recorded bit patterns, never recomputed: total is
// accumulated incrementally round by round and a fresh summation could
// land on a different last ulp, breaking the byte-identical resume
// invariant. IDs are not stored: task i has ID i.

// Snapshot walks the set's complete state through c.
func (s *Set) Snapshot(c *snapshot.Codec) {
	n := c.Count(len(s.tasks), 8)
	if c.Decoding() {
		s.tasks = make([]Task, n)
		for i := range s.tasks {
			s.tasks[i].ID = i
		}
	}
	for i := range s.tasks {
		c.Float64(&s.tasks[i].Weight)
	}
	c.Bools(&s.removed)
	c.Ints(&s.free)
	c.Int(&s.live)
	c.Int(&s.liveTop)
	c.Float64(&s.total)
	c.Float64(&s.wmax)
	c.Float64(&s.wmin)
	// The flags are allocated by the first Remove, so a set that never
	// lost a task has none.
	if len(s.removed) != 0 && len(s.removed) != len(s.tasks) {
		c.Fail(fmt.Errorf("task: snapshot task set has %d removal flags for %d tasks", len(s.removed), len(s.tasks)))
	}
}

// Snapshot walks one task: its ID, then its weight.
func (t *Task) Snapshot(c *snapshot.Codec) {
	c.Int(&t.ID)
	c.Float64(&t.Weight)
}
