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

// EncodeSnapshot writes the injector's persistent state as one
// section body (the caller brackets it with Begin/End).
func (inj *Injector) EncodeSnapshot(enc *snapshot.Encoder) {
	enc.Uint32(uint32(len(inj.ledger)))
	for _, f := range inj.ledger {
		enc.Int(f.tk.ID)
		enc.Float64(f.tk.Weight)
		enc.Int32(f.src)
		enc.Int32(f.dest)
		enc.Int32(f.attempt)
		enc.Int32(f.nextTry)
		enc.Int32(f.deadline)
		enc.Uint64(f.token)
	}
	enc.Uint32(uint32(len(inj.wheel)))
	for _, slot := range inj.wheel {
		enc.Uint32(uint32(len(slot)))
		for _, wr := range slot {
			enc.Int(wr.tk.ID)
			enc.Float64(wr.tk.Weight)
			enc.Int32(wr.src)
			enc.Int32(wr.dest)
			enc.Int32(wr.due)
			enc.Int32(wr.sent)
			enc.Uint64(wr.token)
		}
	}
	enc.Uint64s(inj.pend)
	enc.Uint64(inj.nextToken)
	enc.Bool(inj.group != nil)
	if inj.group != nil {
		enc.Int32s(inj.group)
	}
	enc.Bool(inj.parted)
	enc.Int64(inj.c.Lost)
	enc.Int64(inj.c.Delayed)
	enc.Int64(inj.c.Duplicated)
	enc.Int64(inj.c.Deduped)
	enc.Int64(inj.c.Retries)
	enc.Int64(inj.c.Timeouts)
	enc.Int64(inj.c.PartitionBlocked)
}

// DecodeSnapshot restores the persistent state written by
// EncodeSnapshot into a freshly constructed injector (same plan, same
// fleet size).
func (inj *Injector) DecodeSnapshot(sec *snapshot.Section) error {
	nLedger := int(sec.Uint32())
	inj.ledger = inj.ledger[:0]
	for i := 0; i < nLedger && sec.Err() == nil; i++ {
		var f flight
		f.tk.ID = sec.Int()
		f.tk.Weight = sec.Float64()
		f.src = sec.Int32()
		f.dest = sec.Int32()
		f.attempt = sec.Int32()
		f.nextTry = sec.Int32()
		f.deadline = sec.Int32()
		f.token = sec.Uint64()
		inj.ledger = append(inj.ledger, f)
	}
	nWheel := int(sec.Uint32())
	if sec.Err() == nil && nWheel != len(inj.wheel) {
		return fmt.Errorf("faults: snapshot wheel has %d slots, plan compiles to %d", nWheel, len(inj.wheel))
	}
	for i := 0; i < nWheel && sec.Err() == nil; i++ {
		nSlot := int(sec.Uint32())
		inj.wheel[i] = inj.wheel[i][:0]
		for j := 0; j < nSlot && sec.Err() == nil; j++ {
			var wr wheelRec
			wr.tk.ID = sec.Int()
			wr.tk.Weight = sec.Float64()
			wr.src = sec.Int32()
			wr.dest = sec.Int32()
			wr.due = sec.Int32()
			wr.sent = sec.Int32()
			wr.token = sec.Uint64()
			inj.wheel[i] = append(inj.wheel[i], wr)
		}
	}
	inj.pend = sec.Uint64s(inj.pend)
	inj.nextToken = sec.Uint64()
	hasGroup := sec.Bool()
	if sec.Err() == nil && hasGroup != (inj.group != nil) {
		return fmt.Errorf("faults: snapshot partition state (%v) does not match the plan (%v)", hasGroup, inj.group != nil)
	}
	if hasGroup {
		inj.group = sec.Int32s(inj.group)
		if sec.Err() == nil && len(inj.group) != inj.n {
			return fmt.Errorf("faults: snapshot partition groups cover %d resources, fleet has %d", len(inj.group), inj.n)
		}
	}
	inj.parted = sec.Bool()
	inj.c.Lost = sec.Int64()
	inj.c.Delayed = sec.Int64()
	inj.c.Duplicated = sec.Int64()
	inj.c.Deduped = sec.Int64()
	inj.c.Retries = sec.Int64()
	inj.c.Timeouts = sec.Int64()
	inj.c.PartitionBlocked = sec.Int64()
	return sec.Err()
}
