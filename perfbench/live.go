package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/task"
)

// liveSpec sizes the live-ingest workload.
type liveSpec struct {
	engine      engineSpec
	setups      int
	refRate     float64   // reference offered rate of traced runs, tasks/s; untraced runs offer half
	batch       int       // tasks per POST /ingest
	ladder      []float64 // offered rates of a traced run's capacity search, tasks/s
	rung        time.Duration
	warmup      time.Duration // excluded from the reference phase's latencies
	batchTarget int           // ≈ 0.8 of one round's service capacity in tasks
	maxInterval time.Duration
	reconfig    time.Duration // period of the drain / re-add cycle
	observe     time.Duration // Stats polling cadence of the placement observer
	limit       time.Duration // place p99 limit of a passing ladder rung
	opWindow    int           // consecutive reference-phase ingests whose CPU time one op sample averages
}

func liveSpecFor(toy bool) liveSpec {
	if toy {
		return liveSpec{
			engine: engineSpec{n: 500, horizon: 1 << 22}, setups: 1,
			refRate: 20_000, batch: 100, ladder: []float64{10_000, 20_000, 40_000},
			rung: 300 * time.Millisecond, warmup: 200 * time.Millisecond,
			batchTarget: 205, maxInterval: 5 * time.Millisecond,
			reconfig: 200 * time.Millisecond, observe: 250 * time.Microsecond, limit: 50 * time.Millisecond,
			opWindow: 10,
		}
	}
	return liveSpec{
		engine: engineSpec{n: 10_000, horizon: 1 << 22}, setups: 3,
		refRate: 300_000, batch: 1000,
		ladder: []float64{200_000, 300_000, 450_000, 600_000, 800_000, 1_000_000, 1_200_000},
		rung:   1500 * time.Millisecond, warmup: time.Second,
		// One round serves 10,000 weight units, ~5,128 tasks of mean
		// weight 1.95; 0.8 of that is ~4,100.
		batchTarget: 4100, maxInterval: 5 * time.Millisecond,
		reconfig: time.Second, observe: 250 * time.Microsecond, limit: 50 * time.Millisecond,
		// 133 ms of requests at the untraced rate: many rounds and
		// Stats polls, so each sample carries its share of both, and a
		// run still has ~140 samples, 14 of them beyond the p90.
		opWindow: 20,
	}
}

// liveServer is one set-up of the runtime behind a loopback listener.
type liveServer struct {
	in      *engineInputs
	rt      *serve.Runtime
	srv     *http.Server
	url     string
	logPath string
	log     *os.File
}

func (s *liveServer) close() {
	s.srv.Close()
	s.rt.Close()
	s.log.Close()
	os.Remove(s.logPath)
}

// startServer builds the graph, engine, runtime, round-log file and
// listener, all inside span parent.
func startServer(b *bench, ls liveSpec, i, parent int) (*liveServer, error) {
	in, err := buildInputs(b, ls.engine, parent)
	if err != nil {
		return nil, err
	}
	cfg := in.config(b, ls.engine, b.workers(), nil, parent)
	eid := b.spans.begin("dynamic.new_engine", parent)
	eng, err := dynamic.NewEngine(cfg)
	b.spans.end(eid)
	if b.op(err) != nil {
		return nil, err
	}
	s := &liveServer{in: in,
		logPath: filepath.Join(b.workDir, fmt.Sprintf("live-%d-%d.roundlog", os.Getpid(), i))}
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		eng.Close()
		return nil, err
	}
	if s.log, err = os.Create(s.logPath); err != nil {
		eng.Close()
		return nil, err
	}
	s.rt = serve.New(eng, "uniform", serve.Options{
		BatchTarget: ls.batchTarget,
		MaxInterval: ls.maxInterval,
		// Far above any backlog the ladder builds, so no request is
		// refused for backpressure.
		MaxPending: 1 << 24,
		LogWriter:  s.log,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.rt.Close()
		s.log.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	serve.Routes(mux, s.rt)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	s.url = "http://" + ln.Addr().String()
	go s.srv.Serve(ln)
	return s, nil
}

// Request kinds the generator schedules.
const (
	reqIngest = iota
	reqStatus
	reqDrain
	reqAdd
)

// job is one scheduled request; due is when the open loop wanted it
// sent, and every latency is measured from it.
type job struct {
	kind  int
	phase int // 0 warm-up, 1 reference, 2+i ladder rung i
	due   time.Time
	body  []byte
}

// reply is a finished request.
type reply struct {
	job
	done     time.Time
	round    int
	accepted int
	err      error
}

// ackBody is the /ingest response.
type ackBody struct {
	Accepted int `json:"accepted"`
	Round    int `json:"round"`
}

// sender owns one keep-alive connection and sends the jobs it receives
// in order.
func sender(url string, jobs <-chan job, out *[]reply, wg *sync.WaitGroup) {
	defer wg.Done()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	for j := range jobs {
		r := reply{job: j}
		r.round, r.accepted, r.err = send(client, url, j)
		r.done = time.Now()
		*out = append(*out, r)
	}
}

func send(client *http.Client, url string, j job) (round, accepted int, err error) {
	var resp *http.Response
	switch j.kind {
	case reqStatus:
		resp, err = client.Get(url + "/statusz")
	case reqIngest:
		resp, err = client.Post(url+"/ingest", "application/json", bytes.NewReader(j.body))
	default:
		resp, err = client.Post(url+"/reconfig", "application/json", bytes.NewReader(j.body))
	}
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if j.kind != reqIngest {
		return 0, 0, nil
	}
	var ack ackBody
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, 0, fmt.Errorf("ack: %w", err)
	}
	return ack.Round, ack.Accepted, nil
}

// observer polls the runtime's public Stats at a fixed cadence and
// records when each round was first seen complete, plus the backlog
// and occupancy it saw.
type observer struct {
	doneAt  []time.Time // doneAt[t]: first poll that saw round t complete
	samples []obsSample
}

type obsSample struct {
	at       time.Time
	pending  int
	inFlight int
}

func (o *observer) run(rt *serve.Runtime, every time.Duration, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			o.poll(rt, now)
		}
	}
}

// poll reads Stats once and records what it saw at now.
func (o *observer) poll(rt *serve.Runtime, now time.Time) {
	st := rt.Stats()
	for len(o.doneAt) < st.NextRound {
		o.doneAt = append(o.doneAt, now)
	}
	o.samples = append(o.samples, obsSample{now, st.Pending, st.InFlight})
}

// at returns the sample closest after t.
func (o *observer) at(t time.Time) obsSample {
	for _, s := range o.samples {
		if !s.at.Before(t) {
			return s
		}
	}
	return o.samples[len(o.samples)-1]
}

// phase is one stretch of the open loop at a fixed offered rate.
type phase struct {
	id         int
	rate       float64
	start, end time.Time
}

// cpuMark is a window boundary of the reference phase: the process CPU
// time before and after the calibration loop the generator ran there,
// and the loop's own time.
type cpuMark struct {
	before, after time.Duration
	cal           float64
}

// generate is the open loop's single generator: it schedules every
// request at its due time and hands it to the senders, recording how
// late it ran. Every opWindow ingests of the reference phase (id 1) it
// runs the calibration loop and marks the process CPU time around it.
// The reconfiguration cycle drains 100 resources every period and
// re-adds them half a period later; a status read follows every 16th
// ingest.
func generate(ls liveSpec, phases []phase, bodies [][]byte, n int, cal *calibrator, jobs chan<- job) (marks []cpuMark, lateMax time.Duration) {
	nextReconf := phases[0].start.Add(ls.reconfig / 2)
	drained := false
	cycle := 0
	seq, ref := 0, 0
	for _, ph := range phases {
		interval := time.Duration(float64(ls.batch) / ph.rate * float64(time.Second))
		for due := ph.start; due.Before(ph.end); due = due.Add(interval) {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if late := time.Since(due); late > lateMax {
				lateMax = late
			}
			jobs <- job{kind: reqIngest, phase: ph.id, due: due, body: bodies[seq%len(bodies)]}
			if ph.id == 1 && ref%ls.opWindow == 0 {
				before := cpuNow()
				c := cal.measure()
				marks = append(marks, cpuMark{before, cpuNow(), c})
			}
			if ph.id == 1 {
				ref++
			}
			seq++
			if seq%16 == 0 {
				jobs <- job{kind: reqStatus, phase: ph.id, due: due}
			}
			if !due.Before(nextReconf) {
				lo := (cycle * 100) % (n - 100)
				ids := make([]int, 100)
				for i := range ids {
					ids[i] = lo + i
				}
				kind, key := reqDrain, "down"
				if drained {
					kind, key = reqAdd, "up"
					cycle++
				}
				body, _ := json.Marshal(map[string][]int{key: ids}) // ints always encode
				jobs <- job{kind: kind, phase: ph.id, due: due, body: body}
				drained = !drained
				nextReconf = nextReconf.Add(ls.reconfig / 2)
			}
		}
	}
	return marks, lateMax
}

// ingestBodies pre-encodes the request bodies the generator cycles
// through: Pareto(2, cap 20) weights drawn from the seed.
func ingestBodies(seed uint64, batch int) [][]byte {
	r := rng.NewSeeded(subSeed(seed, streamBodies))
	bodies := make([][]byte, 64)
	for i := range bodies {
		w := task.Pareto{Alpha: 2, Cap: 20}.Weights(batch, r)
		bodies[i], _ = json.Marshal(w) // finite weights always encode
	}
	return bodies
}

// liveWorkload: live-ingest. The serving runtime (serve.Routes over a
// loopback listener) drives a 10,000-resource engine configured as in
// sim-10k, paced adaptively. One generator goroutine runs an open loop
// of 1000-task POST /ingest requests over two connections, with
// /statusz reads and a drain / re-add /reconfig cycle beside them. One
// op is one ingest request at 150k tasks/s on one core; its cost is
// the process CPU time per ingest over windows of opWindow requests,
// reference-scaled by the calibration loop at the window's end.
// Traced runs offer 300k tasks/s on two cores, time each request from
// its due time until a Stats poll saw the round its ack named complete,
// and add a ladder of offered rates to find the highest one the
// runtime sustains.
func liveWorkload(b *bench) error {
	ls := liveSpecFor(b.toy)
	root := b.spans.begin("live", 0)
	defer b.spans.end(root)

	var s *liveServer
	setup, err := timeSetups(b.cal, ls.setups, func(i int) error {
		if s != nil {
			s.close()
			s = nil
		}
		sid := b.spans.begin("setup", root)
		defer b.spans.end(sid)
		var err error
		s, err = startServer(b, ls, i, sid)
		return err
	})
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return err
	}
	b.e2e["setup_s"] = setup
	b.layer["graph.build_s"] = median(b.spans.durations("graph.build")) / 1e3
	b.layer["walk.kernel_s"] = median(b.spans.durations("walk.kernel")) / 1e3
	b.layer["dynamic.new_engine_s"] = median(b.spans.durations("dynamic.new_engine")) / 1e3
	runtime.GC() // the earlier set-ups' garbage, so the timed section does not pay for it
	heap := newHeapPeak()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- s.rt.Run(ctx) }()

	bodies := ingestBodies(b.seed, ls.batch)
	t0 := time.Now().Add(20 * time.Millisecond)
	// The untraced run has one core, and at the two-core reference rate
	// it sat at its knee: rounds merged and the backlog grew in some
	// runs and not in others. Half the rate keeps it clear of the knee.
	rate := ls.refRate
	if !b.traced() {
		rate /= 2
	}
	phases := []phase{{id: 0, rate: rate, start: t0, end: t0.Add(ls.warmup)}}
	ref := b.seconds - ls.warmup
	if b.traced() {
		ref /= 2
	}
	if ref < ls.warmup {
		ref = ls.warmup
	}
	phases = append(phases, phase{id: 1, rate: rate, start: phases[0].end, end: phases[0].end.Add(ref)})
	if b.traced() {
		for i, rate := range ls.ladder {
			last := phases[len(phases)-1].end
			phases = append(phases, phase{id: 2 + i, rate: rate, start: last, end: last.Add(ls.rung)})
		}
	}

	ob := &observer{}
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go ob.run(s.rt, ls.observe, stopObs, &obsWG)

	// The connections: no more than the host has cores, and two at most.
	conns := min(2, runtime.NumCPU())
	// The buffer bounds how far the generator can run ahead of busy
	// senders: about three seconds of requests at the reference rate.
	jobs := make(chan job, 1024)
	outs := make([][]reply, conns)
	var sendWG sync.WaitGroup
	for i := range outs {
		sendWG.Add(1)
		go sender(s.url, jobs, &outs[i], &sendWG)
	}
	marks, lateMax := generate(ls, phases, bodies, ls.engine.n, b.cal, jobs)
	close(jobs)
	sendWG.Wait()

	var replies []reply
	for _, o := range outs {
		replies = append(replies, o...)
	}
	maxRound := -1
	var acked int64
	for _, r := range replies {
		if b.op(r.err) == nil && r.kind == reqIngest {
			acked += int64(r.accepted)
			maxRound = max(maxRound, r.round)
		}
	}
	// Wait until the observer has seen every acked round complete.
	for wait := time.Now().Add(5 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
		if s.rt.Stats().NextRound > maxRound {
			break
		}
	}
	close(stopObs)
	obsWG.Wait()
	// The stopped observer may have missed the last rounds: a stop can
	// win the select over a pending tick. One more poll records them.
	ob.poll(s.rt, time.Now())
	heap.probe()

	sid := b.spans.begin("serve.shutdown", root)
	cancel()
	err = <-runErr
	b.spans.end(sid)
	if b.op(err) != nil {
		return err
	}

	for _, r := range replies {
		name := map[int]string{reqIngest: "http.ingest", reqStatus: "http.status",
			reqDrain: "http.reconfig", reqAdd: "http.reconfig"}[r.kind]
		b.spans.add(name, root, r.due, r.done)
	}

	// Latencies, per phase.
	type lat struct{ ack, place []float64 }
	byPhase := map[int]*lat{}
	var status, reconf []float64
	unplaced := 0
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		switch r.kind {
		case reqStatus:
			status = append(status, ms(r.done.Sub(r.due)))
			continue
		case reqDrain, reqAdd:
			reconf = append(reconf, ms(r.done.Sub(r.due)))
			continue
		}
		l := byPhase[r.phase]
		if l == nil {
			l = &lat{}
			byPhase[r.phase] = l
		}
		l.ack = append(l.ack, ms(r.done.Sub(r.due)))
		if r.round >= len(ob.doneAt) {
			unplaced++
			continue
		}
		placed := ob.doneAt[r.round]
		if placed.Before(r.done) {
			placed = r.done
		}
		l.place = append(l.place, ms(placed.Sub(r.due)))
	}
	b.check("live.all_placed", unplaced == 0, "%d acked batches never seen placed", unplaced)
	refLat := byPhase[1]
	if refLat == nil || len(refLat.place) == 0 {
		return fmt.Errorf("no request completed in the reference phase")
	}

	st := s.rt.Stats()
	recs := s.rt.Records()
	fid := b.spans.begin("dynamic.finish", root)
	res, err := s.rt.Finish()
	b.spans.end(fid)
	b.check("live.finish_conservation", err == nil, "%v", err)
	b.check("live.arrived_eq_accepted", res.Arrived == st.Accepted && st.Accepted == acked,
		"arrived %d, runtime accepted %d, acked %d", res.Arrived, st.Accepted, acked)

	rid := b.spans.begin("serve.replay", root)
	eng, err := dynamic.NewEngine(s.in.config(b, ls.engine, b.workers(), nil, rid))
	if b.op(err) != nil {
		return err
	}
	replayed, err := serve.Replay(eng, recs)
	eng.Close()
	b.spans.end(rid)
	b.check("live.replay_eq_live", err == nil && reflect.DeepEqual(res, replayed), "replay: %v; differing fields %v", err, diffFields(res, replayed))

	b.e2e["heap_mb"] = heap.mib()
	if len(marks) < 2 {
		return fmt.Errorf("the reference phase spans fewer than %d ingests", ls.opWindow+1)
	}
	var ops opTimes
	for i := 1; i < len(marks); i++ {
		ops.add(ms(marks[i].before-marks[i-1].after)/float64(ls.opWindow), marks[i].cal)
	}
	fmt.Fprintf(os.Stderr, "perfbench: reference phase: %d ingests, place p50 %.1f ms, p99 %.1f ms, generator late by up to %.1f ms\n",
		len(refLat.place), median(refLat.place), quantile(refLat.place, 0.99), ms(lateMax))
	ops.report(b)
	b.layer["bench.ops_timed"] *= float64(ls.opWindow)
	b.layer["serve.ack_ms_p50"] = median(refLat.ack)
	b.layer["serve.ack_ms_p99"] = quantile(refLat.ack, 0.99)
	b.layer["serve.place_ms_p50"] = median(refLat.place)
	b.layer["serve.place_ms_p99"] = quantile(refLat.place, 0.99)
	b.layer["serve.status_ms_p50"] = orZero(median(status))
	b.layer["serve.reconfig_ms_p50"] = orZero(median(reconf))
	b.layer["serve.gen_late_ms_max"] = ms(lateMax)
	if total := st.Accepted + st.Rejected; total > 0 {
		b.layer["serve.rejected_frac"] = float64(st.Rejected) / float64(total)
	}

	// Rounds, batches and backlog over the reference phase.
	refPh := phases[1]
	var pend []float64
	for _, sm := range ob.samples {
		if !sm.at.Before(refPh.start) && sm.at.Before(refPh.end) {
			pend = append(pend, float64(sm.pending))
		}
	}
	b.layer["serve.pending_p99"] = orZero(quantile(pend, 0.99))
	r0, r1 := roundAt(ob.doneAt, refPh.start), roundAt(ob.doneAt, refPh.end)
	b.layer["serve.rounds_per_s"] = float64(r1-r0) / refPh.end.Sub(refPh.start).Seconds()
	var batches []float64
	for _, rec := range recs {
		if rec.Round >= r0 && rec.Round < r1 {
			batches = append(batches, float64(len(rec.Weights)))
		}
	}
	b.layer["serve.batch_tasks_p50"] = orZero(median(batches))
	b.layer["serve.batch_tasks_p99"] = orZero(quantile(batches, 0.99))
	if fi, err := os.Stat(s.logPath); err == nil && len(recs) > 0 {
		b.layer["serve.log_bytes_per_round"] = float64(fi.Size()) / float64(len(recs))
	}

	// The capacity ladder: the highest rung, climbing from the lowest,
	// whose place p99 stays within the limit while neither the backlog
	// nor the occupancy grows. Growth is judged over the rung's second
	// half, because occupancy moves to a new level after every rate step
	// (Little's law): the backlog may not rise by more than two batch
	// targets, the occupancy not by more than a quarter plus one batch
	// target.
	for _, ph := range phases[2:] {
		l := byPhase[ph.id]
		if l == nil || len(l.place) == 0 {
			break
		}
		p99 := quantile(l.place, 0.99)
		a, z := ob.at(ph.start.Add(ph.end.Sub(ph.start)/2)), ob.at(ph.end)
		fmt.Fprintf(os.Stderr, "perfbench: ladder %.0f tasks/s: place p99 %.1f ms, pending %d -> %d, in flight %d -> %d\n",
			ph.rate, p99, a.pending, z.pending, a.inFlight, z.inFlight)
		if p99 > ms(ls.limit) {
			break
		}
		if z.pending > a.pending+2*ls.batchTarget || float64(z.inFlight) > 1.25*float64(a.inFlight)+float64(ls.batchTarget) {
			break
		}
		b.layer["serve.max_rate_tasks_per_s"] = ph.rate
	}

	var rs roundStats
	for _, sm := range ob.samples {
		rs.inFlight = append(rs.inFlight, float64(sm.inFlight))
	}
	resultLayer(b, 0, res, &rs)
	return nil
}

// roundAt returns the number of rounds seen complete by instant t.
func roundAt(doneAt []time.Time, t time.Time) int {
	n := 0
	for n < len(doneAt) && !doneAt[n].After(t) {
		n++
	}
	return n
}
