package faults

import (
	"fmt"

	"repro/internal/snapshot"
)

// Checkpoint support: the injector's sequential engine-loop state —
// the in-flight ledger, the delay wheel (every slot, in-slot order
// preserved: Tick walks slots verbatim, so order is semantic), the
// dedup table, the token allocator, the partition groups and the
// cumulative counters — serializes in full. Wheel entries keep their
// provenance (source resource and send round): a delivery after resume
// needs both to count the hop and to stamp the trace record's From and
// Latency exactly as the uninterrupted run does. The per-shard scratch,
// the transition map and the delta buffers are transient: they are
// rebuilt by NewInjector or repopulated within a round. The partition
// group vector must be saved rather than recomputed because
// StartRound only refreshes it on window-transition rounds; a resume
// mid-window would otherwise run with a stale (empty) group map.

// Snapshot walks the injector's persistent state through c. A restore
// needs a freshly constructed injector of the same plan and fleet
// size.
func (inj *Injector) Snapshot(c *snapshot.Codec) {
	for i := range snapshot.Items(c, &inj.ledger, 44) {
		inj.ledger[i].snapshot(c)
	}
	if n := c.Count(len(inj.wheel), 4); n != len(inj.wheel) {
		c.Fail(fmt.Errorf("faults: snapshot wheel has %d slots, plan compiles to %d", n, len(inj.wheel)))
		return
	}
	for i := range inj.wheel {
		for j := range snapshot.Items(c, &inj.wheel[i], 40) {
			inj.wheel[i][j].snapshot(c)
		}
	}
	c.Uint64s(&inj.pend)
	c.Uint64(&inj.nextToken)
	c.MatchBool("partition state", inj.group != nil)
	if inj.group != nil {
		c.Int32s(&inj.group)
		if len(inj.group) != inj.n {
			c.Fail(fmt.Errorf("faults: snapshot partition groups cover %d resources, fleet has %d", len(inj.group), inj.n))
			return
		}
	}
	c.Bool(&inj.parted)
	c.Int64(&inj.c.Lost)
	c.Int64(&inj.c.Delayed)
	c.Int64(&inj.c.Duplicated)
	c.Int64(&inj.c.Deduped)
	c.Int64(&inj.c.Retries)
	c.Int64(&inj.c.Timeouts)
	c.Int64(&inj.c.PartitionBlocked)
}

func (f *flight) snapshot(c *snapshot.Codec) {
	f.tk.Snapshot(c)
	c.Int32(&f.src)
	c.Int32(&f.dest)
	c.Int32(&f.attempt)
	c.Int32(&f.nextTry)
	c.Int32(&f.deadline)
	c.Uint64(&f.token)
}

func (wr *wheelRec) snapshot(c *snapshot.Codec) {
	wr.tk.Snapshot(c)
	c.Int32(&wr.src)
	c.Int32(&wr.dest)
	c.Int32(&wr.due)
	c.Int32(&wr.sent)
	c.Uint64(&wr.token)
}
