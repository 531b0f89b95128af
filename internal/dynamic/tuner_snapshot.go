package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/snapshot"
)

// SelfTuner checkpoint support. The tuner's persistent state is small:
// the decaying load estimates, the push-sum companion (up/speed mass)
// and the churned latch. Everything else — the diffusion ping-pong
// buffers, the threshold scratch, the bound shard closures — is
// refresh-time scratch a restore rebuilds, exactly as the lazy
// first-Refresh init would. The estimates are bit patterns of
// incrementally decayed sums, so they are stored as exact float bits
// and never recomputed.
//
// OracleTuner deliberately does not implement Snapshotter: its only
// field is a threshold scratch vector fully rewritten from core state
// at each refresh round, so a fresh oracle resumes bit-identically.

// Snapshot implements Snapshotter. A restore needs a fresh tuner of
// the checkpointed run's configuration, speeds already applied by the
// engine.
func (st *SelfTuner) Snapshot(c *snapshot.Codec) {
	if c.Decoding() && st.est != nil {
		c.Fail(errors.New("dynamic: SelfTuner snapshot restore requires a fresh tuner"))
		return
	}
	inited := st.est != nil
	c.Bool(&inited)
	if !inited {
		return
	}
	c.Float64s(&st.est)
	c.Float64s(&st.upw)
	c.Bool(&st.churned)
	n := len(st.est)
	switch {
	case len(st.upw) != n:
		c.Fail(fmt.Errorf("dynamic: SelfTuner snapshot has %d mass entries for %d estimates", len(st.upw), n))
	case st.speeds != nil && len(st.speeds) != n:
		c.Fail(fmt.Errorf("dynamic: SelfTuner snapshot covers %d resources, speed profile has %d", n, len(st.speeds)))
	case c.Decoding() && c.Err() == nil:
		st.initScratch(n)
	}
}

// Interface conformance, pinned at compile time.
var _ Snapshotter = (*SelfTuner)(nil)
