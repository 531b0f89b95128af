package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obs"
)

// spanLog keeps the spans of a traced run in memory until the run
// ends. Every method is a no-op on a nil log, so untraced runs call the
// same code and record nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

// span is one timed call into a layer; Parent is the enclosing span's
// ID (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.t0))
}

// add records a span measured elsewhere (a request timed by a sender
// goroutine); start and end are wall-clock instants.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
}

// durations returns the durations in ms of every span called name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	var ds []float64
	for _, s := range l.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return ds
}

// seconds returns the summed duration in seconds of the spans called
// name.
func (l *spanLog) seconds(name string) float64 {
	return sum(l.durations(name)) / 1e3
}

// write stores the spans as JSONL under dir.
func (l *spanLog) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is sorted in place). NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// orZero maps NaN (an empty sample) to 0 for per-layer reporting.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapPeak records the peak live heap over fixed probe points. Each
// probe forces a collection and reads the bytes it marked live
// (/gc/heap/live:bytes), so the figure depends on the program's state
// at the probe points, not on where the collector's pacing happened to
// put its cycles.
type heapPeak struct {
	samples []metrics.Sample
	peak    uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) probe() {
	runtime.GC()
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64())
}

func (h *heapPeak) mib() float64 { return float64(h.peak) / (1 << 20) }

// phaseTally folds the engine's KindPhase and KindShardCost telemetry
// (per-shard phase nanos accumulated over each telemetry period) into
// per-round figures: the sequential phases, the slowest shard of every
// sharded phase (the critical path), the barrier idle (slowest minus
// mean shard) and the shard skew.
type phaseTally struct {
	seq     [obs.NumPhases]int64 // sequential phases (Shard == -1)
	slowest [obs.NumPhases]int64 // per sharded phase, sum over reports of the slowest shard
	idle    int64                // sum over reports and phases of slowest − mean shard
	skew    []float64            // per report: max/mean shard cost

	cur      map[int]*report // reports in progress, keyed by telemetry round
	curOrder []int
}

type report struct {
	shards [][obs.NumPhases]int64
	cost   []int64
}

func newPhaseTally() *phaseTally { return &phaseTally{cur: map[int]*report{}} }

// add consumes one telemetry event.
func (p *phaseTally) add(ev *obs.Event) {
	switch ev.Kind {
	case obs.KindPhase:
		if ev.Phase.Shard < 0 {
			for i, ns := range ev.Phase.Nanos {
				p.seq[i] += ns
			}
			return
		}
		p.get(ev.Round).shards = append(p.get(ev.Round).shards, ev.Phase.Nanos)
	case obs.KindShardCost:
		r := p.get(ev.Round)
		r.cost = append(r.cost, ev.ShardCost.Nanos)
	}
}

func (p *phaseTally) get(round int) *report {
	r, ok := p.cur[round]
	if !ok {
		r = &report{}
		p.cur[round] = r
		p.curOrder = append(p.curOrder, round)
	}
	return r
}

// fold closes every collected report.
func (p *phaseTally) fold() {
	for _, round := range p.curOrder {
		r := p.cur[round]
		if len(r.shards) > 0 {
			for ph := range obs.NumPhases {
				var max, tot int64
				for _, s := range r.shards {
					tot += s[ph]
					if s[ph] > max {
						max = s[ph]
					}
				}
				p.slowest[ph] += max
				p.idle += max - tot/int64(len(r.shards))
			}
		}
		if len(r.cost) > 0 {
			var max, tot int64
			for _, c := range r.cost {
				tot += c
				if c > max {
					max = c
				}
			}
			if tot > 0 {
				p.skew = append(p.skew, float64(max)*float64(len(r.cost))/float64(tot))
			}
		}
	}
	p.cur, p.curOrder = map[int]*report{}, nil
}

// drain polls sub into the tally.
func (p *phaseTally) drain(sub *obs.Subscription, buf []obs.Event) []obs.Event {
	buf = sub.Poll(buf[:0])
	for i := range buf {
		p.add(&buf[i])
	}
	return buf
}

// report writes the per-round phase metrics for `rounds` timed rounds
// whose traced Step calls took stepMs in total.
func (p *phaseTally) report(layer map[string]float64, rounds int, stepMs float64) error {
	p.fold()
	if rounds == 0 {
		return fmt.Errorf("no timed rounds to attribute")
	}
	per := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	layer["dynamic.arrivals_ms"] = per(p.seq[obs.PhaseArrivals])
	layer["dynamic.tune_ms"] = per(p.seq[obs.PhaseTune])
	layer["dynamic.service_ms"] = per(p.slowest[obs.PhaseService])
	layer["dynamic.propose_ms"] = per(p.slowest[obs.PhasePropose])
	layer["dynamic.deliver_ms"] = per(p.slowest[obs.PhaseDeliver])
	layer["dynamic.evacuate_ms"] = per(p.slowest[obs.PhaseEvac])
	layer["dynamic.barrier_idle_ms"] = per(p.idle)
	attributed := 0.0
	for _, name := range []string{"arrivals", "tune", "service", "propose", "deliver", "evacuate"} {
		attributed += layer["dynamic."+name+"_ms"]
	}
	layer["dynamic.unattributed_ms"] = stepMs/float64(rounds) - attributed
	layer["dynamic.shard_skew"] = mean(p.skew)
	return nil
}
