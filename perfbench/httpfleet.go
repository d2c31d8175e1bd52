package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"angstrom/internal/journal"
	"angstrom/internal/server"
)

// http-fleet: fleet scale with durability on. 10,000 advisory apps on
// the real clock, journal on disk with default snapshot settings.
// Connection 1 sends open-loop JSON beats (each app 25 beats every 5 s,
// ~2,000 requests/s); connection 2 sends open-loop status reads, goal
// changes and decision-lag probes. About 2% of apps beat per tick, so
// the quiescence skip and the incremental manager carry the tick, and
// the journal pays for every beat append and goal commit. After the
// load, copies of the data directory taken without Close (what kill -9
// leaves) are booted for recovery_s.
const (
	hfApps       = 10000
	hfProbes     = 64
	hfBatch      = 25
	hfEvery      = 5 * time.Second
	hfGoalEvery  = 100 * time.Millisecond
	hfProbeEvery = 23 * time.Millisecond // every phase of the tick grid
	// Goal bands straddle the 5 beats/s every app sends.
	hfMinLo, hfMinHi = 2.0, 8.0
)

func hfConfig(dir string, fs journal.FS) server.Config {
	return server.Config{Cores: 4096, Oversubscribe: true, Period: period, DataDir: dir, FS: fs}
}

// hfSetup is NewDaemon on an empty data directory, the fleet's HTTP
// enrolls (each a synchronous journal commit) and the first tick.
func hfSetup(o opts, f fleet, op *ops, dir string, fs journal.FS) (*serving, time.Duration, error) {
	start := time.Now()
	d, err := server.NewDaemon(hfConfig(dir, fs))
	if err != nil {
		return nil, 0, err
	}
	s, err := serve(d, o.t, false)
	if err != nil {
		_ = d.Close()
		return nil, 0, err
	}
	c := newClient(s.base, o.t)
	defer c.close()
	for _, req := range f.reqs {
		op.done(c.enroll("enroll", req))
	}
	d.Tick()
	return s, time.Since(start), nil
}

// drop closes a serving daemon and its journal.
func drop(s *serving) {
	s.close()
	_ = s.d.Close()
}

type hfBeat struct {
	at  time.Duration // since the load started
	app int           // index into fleet.load
}

func runHTTPFleet(o opts) (*result, error) {
	r := newResult("http-fleet")
	op := &ops{}
	f := newFleet(o.rng(1), "hf", o.scaled(hfApps, 16), o.scaled(hfProbes, 8), hfMinLo, hfMinHi, 2, 0, "")
	tfs, fs := journalFS(o.t)

	var durs []time.Duration
	var s *serving
	var dir string
	for i := 0; i < setups; i++ {
		if s != nil {
			drop(s)
			_ = os.RemoveAll(dir)
			runtime.GC()
		}
		dir = filepath.Join(o.scratch, fmt.Sprintf("data-%d", i))
		var dur time.Duration
		var err error
		if s, dur, err = hfSetup(o, f, op, dir, fs); err != nil {
			return nil, err
		}
		durs = append(durs, dur)
	}
	r.e2e["setup_s"] = medianDur(durs)
	r.notes["setup_s"] = fmt.Sprintf("median of %d setups", len(durs))
	d := s.d
	runtime.GC()

	// The seeded schedule: every load app beats hfBatch beats every
	// hfEvery from a seeded phase.
	loadFor := time.Duration(o.seconds * float64(time.Second))
	rng := o.rng(4)
	var sched []hfBeat
	for i := range f.load {
		for at := time.Duration(rng.Int63n(int64(hfEvery))); at < loadFor; at += hfEvery {
			sched = append(sched, hfBeat{at: at, app: i})
		}
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].at < sched[j].at })
	goals := map[string]server.GoalView{}
	for _, req := range f.reqs {
		goals[req.Name] = server.GoalView{MinRate: req.MinRate, MaxRate: req.MaxRate}
	}

	ob := &observed{o: o, srv: s, fs: tfs}
	ob.stats0, ob.shards0 = d.Stats(), d.ShardBeats()
	if tfs != nil {
		ob.fsBytes0, ob.fsSyncs0 = tfs.bytes.Load(), tfs.syncs.Load()
	}
	gc := gcStart()
	hp := sampleHeap()
	ob.loadStart = time.Now()
	end := ob.loadStart.Add(loadFor)

	stopTicks := make(chan struct{})
	ticksDone := make(chan *tickLog, 1)
	go func() { ticksDone <- realClockTicks(d, period, stopTicks, o.t) }()

	// Connection 2: status reads, goal changes and probes, open loop.
	c2 := newClient(s.base, o.t)
	defer c2.close()
	l := &loop{}
	sr := &statusReader{c: c2, o: op, rng: o.rng(2), apps: f.load}
	pr := &prober{c: c2, o: op, apps: f.aside, busy: make([]bool, len(f.aside)), every: pollEvery}
	grng := o.rng(5)
	setGoal := func(time.Time) {
		app := f.load[grng.Intn(len(f.load))]
		min := hfMinLo + grng.Float64()*(hfMinHi-hfMinLo)
		g := server.GoalView{MinRate: min, MaxRate: 2 * min}
		body, _ := json.Marshal(server.GoalRequest{MinRate: g.MinRate, MaxRate: g.MaxRate})
		if op.done(c2.call("goal", http.MethodPut, "/v1/apps/"+app+"/goal", body, http.StatusNoContent, nil)) {
			goals[app] = g
		}
	}
	before := func(t time.Time) bool { return t.Before(end) }
	off := o.rng(3)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(statusEvery)))), statusEvery, before, sr.read)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(hfGoalEvery)))), hfGoalEvery, before, setGoal)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(hfProbeEvery)))), hfProbeEvery, before,
		func(due time.Time) { pr.start(l, due) })
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		if n := l.run(end.Add(probeTimeout + time.Second)); n > 0 {
			op.fail(fmt.Errorf("%d probe operations abandoned at the deadline", n))
		}
	}()

	// Connection 1 (this goroutine): the open-loop beat schedule, every
	// batch timed from when it was due.
	c1 := newClient(s.base, o.t)
	defer c1.close()
	body := beatBody(hfBatch)
	var acks, late1 []float64
	var acked int64
	for _, b := range sched {
		due := ob.loadStart.Add(b.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late1 = append(late1, ms64(time.Since(due)))
		err := c1.call("beats", http.MethodPost, "/v1/apps/"+f.load[b.app]+"/beats", body, http.StatusAccepted, nil)
		if op.done(err) {
			acks = append(acks, ms64(time.Since(due)))
			acked += hfBatch
		}
	}
	beatsEnd := time.Now()
	<-loopDone
	close(stopTicks)
	ticks := <-ticksDone
	ob.loadEnd = time.Now()
	ob.gcCycles, ob.gcPauses = gc.end() // before hp.end's forced collection
	r.e2e["heap_peak_mb"] = hp.end()
	ob.ticks = ticks
	ob.late = append(l.lateMs, late1...)
	ob.stats1, ob.shards1 = d.Stats(), d.ShardBeats()
	if tfs != nil {
		ob.fsBytes1, ob.fsSyncs1 = tfs.bytes.Load(), tfs.syncs.Load()
	}
	ob.list = d.List()
	ob.clientBeats = acked + pr.beats

	r.e2e["beats_per_s"] = float64(ob.clientBeats) / beatsEnd.Sub(ob.loadStart).Seconds()
	r.timing(false, "beat_ack", "ms", acks)
	r.timing(false, "decision_lag", "ms", pr.lags)
	r.timing(false, "tick", "ms", ticks.durMs)
	r.timing(false, "status", "ms", sr.ms)
	r.e2e["goal_attainment"] = attainment(ob.list, f.load)

	ingested := int64(ob.stats1.Beats - ob.stats0.Beats)
	r.check(ingested == ob.clientBeats, "stats: %d beats ingested, generator had %d acknowledged", ingested, ob.clientBeats)
	shardTotal, _ := sumShards(ob.shards0, ob.shards1)
	r.check(int64(shardTotal) == ingested, "shard beats %d disagree with stats %d", shardTotal, ingested)
	r.checkServed(d, ob.list, len(f.reqs), nil)

	// Kill images: copies of the live data directory, taken before any
	// Close could compact or flush it.
	var images []string
	for i := 0; i < setups; i++ {
		img := filepath.Join(o.scratch, fmt.Sprintf("image-%d", i))
		if err := copyDir(dir, img); err != nil {
			return nil, fmt.Errorf("kill image: %w", err)
		}
		images = append(images, img)
	}
	drop(s)
	_ = os.RemoveAll(dir)
	runtime.GC()

	var boots []time.Duration
	for i, img := range images {
		boot := o.t.id()
		if tfs != nil {
			tfs.boot.Store(boot)
		}
		t0 := time.Now()
		rd, err := server.NewDaemon(hfConfig(img, fs))
		t1 := time.Now()
		if tfs != nil {
			tfs.boot.Store(0)
		}
		o.t.addID(boot, "recover.boot", boot, 0, t0, t1)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		boots = append(boots, t1.Sub(t0))
		if i == 0 {
			ob.replayed = rd.RecoveryInfo().ReplayedRecords
			r.checkRestored(rd.List(), goals)
		}
		_ = rd.Close()
		_ = os.RemoveAll(img)
		runtime.GC()
	}
	r.e2e["recovery_s"] = medianDur(boots)
	r.notes["recovery_s"] = fmt.Sprintf("median of %d boots on kill images", len(boots))

	r.account(op)
	if o.t != nil {
		r.layers(ob)
	}
	return r, nil
}

// checkRestored checks a recovered fleet is exactly the enrolled set,
// each app with the last goal the generator had acknowledged.
func (r *result) checkRestored(list []server.AppStatus, goals map[string]server.GoalView) {
	r.check(len(list) == len(goals), "recovery restored %d apps, want %d", len(list), len(goals))
	wrong := 0
	for _, st := range list {
		if g, ok := goals[st.Name]; !ok || g != st.Goal {
			wrong++
		}
	}
	r.check(wrong == 0, "recovery: %d apps missing from the enrolled set or with a stale goal", wrong)
}
