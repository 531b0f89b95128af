package stack

import "repro/internal/snapshot"

// Snapshot walks the stack bottom-to-top, then its load. The load
// restores as the exact recorded bit pattern rather than a fresh
// summation, because the engine's resume invariant requires the
// incrementally accumulated float to continue from precisely where the
// checkpointed run left it.
func (s *Stack) Snapshot(c *snapshot.Codec) {
	for i := range snapshot.Items(c, &s.tasks, 16) {
		s.tasks[i].Snapshot(c)
	}
	c.Float64(&s.load)
}
