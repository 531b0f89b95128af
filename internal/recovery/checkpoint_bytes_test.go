package recovery

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// TestCheckpointBytesPinned pins the checkpoint format across builds:
// the SHA-256 of a checkpoint taken at a fixed round in three fixed
// scenarios must equal a recorded digest. The crash/resume goldens only
// compare checkpoints of one build with each other, so a change that
// alters the format identically on both sides passes them; this test
// does not. It lives here because this package sees every stateful
// checkpoint section — the engine's, the fault injector's, the
// self-tuner's and Locality's.
//
// A deliberate format change (with a snapshot.Version bump) updates
// the digests; any other digest change is a format regression.
func TestCheckpointBytesPinned(t *testing.T) {
	expander := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	base := func() dynamic.Config {
		return dynamic.Config{
			Graph:    expander,
			Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(expander))},
			Arrivals: dynamic.Poisson{Rate: 0.8 * 200 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
			Service:  dynamic.WeightProportional{Rate: 1},
			Tuner:    &dynamic.OracleTuner{Eps: 0.5},
			Churn:    dynamic.Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100},
			Rounds:   120,
			Window:   40,
			Seed:     1,
			Workers:  2,
		}
	}
	members := make([]int, 50)
	for i := range members {
		members[i] = i
	}
	topo, err := Synth(400, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		round int
		build func() dynamic.Config
		want  string
	}{
		{"churn", 90, base,
			"f442d846c048ed077750df391afa5a956dccb9226aea762722faa5c87152b58e"},
		{"faults-quarantine", 90, func() dynamic.Config {
			cfg := base()
			cfg.Faults = &faults.Plan{
				Loss: 0.1, RetryBase: 1, RetryCap: 4, Timeout: 12,
				DelayProb: 0.2, DelayMax: 6, DupProb: 0.05,
				Partitions: []faults.Partition{{Start: 40, End: 110, Members: members}},
			}
			cfg.Quarantine = dynamic.Quarantine{Flaps: 2, Window: 40, Cooloff: 25}
			return cfg
		}, "32c9762215e941c73c25d0b8915b76f8560092f9fb575d0ba0ae0c24f2d54450"},
		{"tuner-locality-alerts", 100, func() dynamic.Config {
			events := []dynamic.ChurnEvent{
				{Round: 60, DownList: topo.RackList(1, nil)},
				{Round: 90, Every: 7, Down: 3},
				{Round: 93, Every: 7, Up: 3},
			}
			cfg := recoverConfig(topo, events, 3, 2, &Locality{Topo: topo})
			cfg.Domains = topo.ObsDomains()
			cfg.AlertBudget = 0.1
			cfg.AlertWindows = 1
			cfg.Window = 20
			cfg.Obs = obs.NewBroker()
			return cfg
		}, "e61ab8bbe536ddbce8c76bc8865bf9dcd78c80c0b5b3758d40a80116dbc8e2cc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.build()
			cfg.CheckpointEvery = tc.round
			cfg.CrashAfterRound = tc.round
			var sum [sha256.Size]byte
			cfg.OnCheckpoint = func(round int, data []byte) error {
				if round == tc.round {
					sum = sha256.Sum256(data)
				}
				return nil
			}
			if _, err := dynamic.Run(cfg); !errors.Is(err, dynamic.ErrCrashed) {
				t.Fatalf("run returned %v, want ErrCrashed", err)
			}
			if cfg.Obs != nil {
				cfg.Obs.Close()
			}
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("checkpoint at round %d hashes to %s, want %s", tc.round, got, tc.want)
			}
		})
	}
}
