package recovery

import (
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/snapshot"
)

// Locality checkpoint support. The per-rack and per-zone up-member
// lists are maintained by swap-remove, so their ORDER is a function of
// the whole churn history — and Pick draws uniform indexes into them.
// Replaying ResetUp + the down set would rebuild the same membership
// in a different order and silently divert every subsequent pick, so
// the lists (and the position indexes that keep swap-remove O(1)) are
// serialized verbatim.

// Snapshot implements dynamic.Snapshotter. A restore needs the
// checkpointed run's Topology; membership counts are checked against
// it.
func (l *Locality) Snapshot(c *snapshot.Codec) {
	inited := l.rackUp != nil
	c.Bool(&inited)
	if !inited {
		return
	}
	t := l.Topo
	if c.Decoding() && l.rackUp == nil {
		l.ResetUp(t.N())
	}
	if n := c.Count(len(l.rackUp), 4); n != t.Racks() {
		c.Fail(fmt.Errorf("recovery: snapshot covers %d racks, topology has %d", n, t.Racks()))
		return
	}
	for k := range l.rackUp {
		c.Int32s(&l.rackUp[k])
	}
	if n := c.Count(len(l.zoneUp), 4); n != t.Zones() {
		c.Fail(fmt.Errorf("recovery: snapshot covers %d zones, topology has %d", n, t.Zones()))
		return
	}
	for z := range l.zoneUp {
		c.Int32s(&l.zoneUp[z])
	}
	c.Int32s(&l.posRack)
	c.Int32s(&l.posZone)
	if len(l.posRack) != t.N() || len(l.posZone) != t.N() {
		c.Fail(fmt.Errorf("recovery: snapshot position vectors cover %d/%d resources, topology has %d",
			len(l.posRack), len(l.posZone), t.N()))
	}
}

// Interface conformance, pinned at compile time.
var _ dynamic.Snapshotter = (*Locality)(nil)
