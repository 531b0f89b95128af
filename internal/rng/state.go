package rng

import (
	"fmt"

	"repro/internal/snapshot"
)

// Generator state for checkpoint/restore. A Rand's position in its
// stream is 1–4 machine words plus a kind tag; the fixed-size
// [4]uint64 word block keeps the checkpoint layout uniform (and
// allocation-free) across generator kinds.

// Generator kind tags, stable across releases — they are written into
// snapshot files.
const (
	KindSplitMix64 uint8 = 1
	KindXoshiro256 uint8 = 2
	KindPCG32      uint8 = 3
)

// Snapshot walks the generator's position through c: the kind tag,
// then the four state words. A restore fails unless the saved kind
// matches the receiver's generator — a checkpoint written with one
// generator family cannot silently resume on another.
func (r *Rand) Snapshot(c *snapshot.Codec) {
	kind, words := r.state()
	c.Uint8(&kind)
	for i := range words {
		c.Uint64(&words[i])
	}
	if c.Decoding() && c.Err() == nil {
		if err := r.setState(kind, words); err != nil {
			c.Fail(err)
		}
	}
}

// state returns the generator's kind tag and raw state words. Unused
// words are zero.
func (r *Rand) state() (kind uint8, words [4]uint64) {
	switch src := r.src.(type) {
	case *SplitMix64:
		return KindSplitMix64, [4]uint64{src.state}
	case *Xoshiro256:
		return KindXoshiro256, src.s
	case *PCG32:
		return KindPCG32, [4]uint64{src.state, src.inc}
	default:
		panic(fmt.Sprintf("rng: cannot export state of %T", r.src))
	}
}

// setState replaces the generator's position with a saved (kind,
// words) pair of the receiver's own generator kind.
func (r *Rand) setState(kind uint8, words [4]uint64) error {
	switch src := r.src.(type) {
	case *SplitMix64:
		if kind != KindSplitMix64 {
			return fmt.Errorf("rng: state kind %d does not match SplitMix64 generator", kind)
		}
		src.state = words[0]
	case *Xoshiro256:
		if kind != KindXoshiro256 {
			return fmt.Errorf("rng: state kind %d does not match Xoshiro256 generator", kind)
		}
		src.s = words
	case *PCG32:
		if kind != KindPCG32 {
			return fmt.Errorf("rng: state kind %d does not match PCG32 generator", kind)
		}
		src.state, src.inc = words[0], words[1]
	default:
		return fmt.Errorf("rng: cannot restore state into %T", r.src)
	}
	return nil
}
