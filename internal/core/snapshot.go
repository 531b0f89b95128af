package core

import (
	"fmt"

	"repro/internal/snapshot"
)

// Snapshot walks the state's checkpoint fields through c: the round
// counter, the threshold vector, the task→location map, the live-wmax
// cache, the in-flight ledger and every stack. Every incrementally
// maintained float travels as its exact bit pattern, so a resumed run
// continues bit for bit. The overloaded set is the one piece of
// derived state recomputed instead of saved — it is pure comparison,
// no float accumulation, so recounting cannot drift. The task set must
// be restored first: the location map and the stacks are checked
// against its ID space.
func (s *State) Snapshot(c *snapshot.Codec) {
	c.Int(&s.round)
	c.Float64s(&s.thr)
	c.Int32s(&s.loc)
	c.Float64(&s.liveWMax)
	c.Int(&s.liveWMaxCount)
	c.Bool(&s.liveWMaxDirty)
	c.Int(&s.inflightN)
	c.Float64(&s.inflightW)
	for r := range s.stacks {
		s.stacks[r].Snapshot(c)
	}
	m := s.ts.M()
	switch {
	case len(s.thr) != len(s.stacks):
		c.Fail(fmt.Errorf("core: snapshot threshold vector covers %d resources, fleet has %d", len(s.thr), len(s.stacks)))
	case len(s.loc) < m:
		c.Fail(fmt.Errorf("core: snapshot location map covers %d task IDs, task set has %d", len(s.loc), m))
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	for r := range s.stacks {
		for _, tk := range s.stacks[r].Tasks() {
			if tk.ID < 0 || tk.ID >= m {
				c.Fail(fmt.Errorf("core: snapshot stack %d holds task %d outside the %d-task ID space", r, tk.ID, m))
				return
			}
		}
	}
	s.recountOverloaded()
}
