package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/server"
)

// chip-federation: tick-dominated and chip-backed. 10,000 chip-backed
// apps on 4 dies × 1,024 tiles with a 4,096-core pool, oversubscribed —
// the DaemonTickFederated shape, kept exactly because it is where the
// broker's per-die over-grant shows. The clock is accelerated and the
// harness ticks back to back; between ticks it withdraws and re-enrolls
// seeded apps (placement and makeRoom churn), and at the midpoint it
// saturates one seeded die so the migration path runs. A second
// connection reads status open loop. The chip emits every beat.
const (
	cfApps         = 10000
	cfChips        = 4
	cfTiles        = 1024
	cfCores        = 4096
	cfAccel        = 0.1
	cfChurnApps    = 500 // the seeded churn set; status reads avoid it
	cfChurnPerTick = 2
	cfStatusEvery  = 20 * time.Millisecond
	cfProbeEvery   = 50 * time.Millisecond
	cfSaturate     = 0.35
	// cfTicksPerSecond sets the tick count from --seconds: about as many
	// seconds of back-to-back ticking as a real-clock pass loads for, so
	// a slow window of the shared host moves the median tick less.
	cfTicksPerSecond = 20
)

func cfConfig() server.Config {
	return server.Config{
		Cores: cfCores, Accel: cfAccel, Period: period, Oversubscribe: true,
		Chip: &server.ChipConfig{Chips: cfChips, Tiles: cfTiles},
	}
}

// cfSetup is NewDaemon, the fleet's HTTP enrolls (placement on every
// one) and the first tick.
func cfSetup(o opts, f fleet, op *ops) (*serving, time.Duration, error) {
	start := time.Now()
	d, err := server.NewDaemon(cfConfig())
	if err != nil {
		return nil, 0, err
	}
	s, err := serve(d, o.t, false)
	if err != nil {
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

// tickStart is when a harness tick began and the simulated time just
// before it: a decision newer than prevSim reflects that tick's beats.
type tickStart struct {
	at      time.Time
	prevSim float64
}

// chipProber measures decision lag on the accelerated chip fleet: the
// chip emits an app's beats when a tick advances its partition, so a
// probe waits for the next tick to start and polls until a decision
// newer than the previous tick is visible.
type chipProber struct {
	c    *client
	o    *ops
	apps []string
	rng  *rand.Rand
	mu   sync.Mutex
	ts   []tickStart
	done atomic.Bool // no tick will start any more
	lags []float64
}

func (p *chipProber) publish(t tickStart) {
	p.mu.Lock()
	p.ts = append(p.ts, t)
	p.mu.Unlock()
}

// tick returns the k-th tick's start, if it has started, and how many
// ticks have started.
func (p *chipProber) tick(k int) (tickStart, bool, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k < len(p.ts) {
		return p.ts[k], true, len(p.ts)
	}
	return tickStart{}, false, len(p.ts)
}

func (p *chipProber) start(l *loop, due time.Time) {
	_, _, next := p.tick(0)
	p.poll(l, p.apps[p.rng.Intn(len(p.apps))], next, due)
}

func (p *chipProber) poll(l *loop, app string, target int, due time.Time) {
	var st server.AppStatus
	err := p.c.status("probe_poll", app, &st)
	now := time.Now()
	if !p.o.done(err) {
		return
	}
	ts, started, _ := p.tick(target)
	if started && st.Decision != nil && st.Decision.Time > ts.prevSim {
		p.lags = append(p.lags, ms64(now.Sub(ts.at)))
		return
	}
	if !started && p.done.Load() {
		return // the load ended before the tick this probe waited for
	}
	if now.Sub(due) > probeTimeout {
		p.o.fail(fmt.Errorf("probe %s: no fresh decision after %v", app, probeTimeout))
		return
	}
	l.at(now.Add(pollEvery), func(time.Time) { p.poll(l, app, target, due) })
}

func runFederation(o opts) (*result, error) {
	r := newResult("chip-federation")
	op := &ops{}
	f := newFleet(o.rng(1), "cf", o.scaled(cfApps, 16), o.scaled(cfChurnApps, 2), 15, 25, 1.5, 256, server.ModeChip)
	reqs := map[string]server.EnrollRequest{}
	for _, req := range f.reqs {
		reqs[req.Name] = req
	}

	var durs []time.Duration
	var s *serving
	for i := 0; i < setups; i++ {
		if s != nil {
			drop(s)
			runtime.GC()
		}
		var dur time.Duration
		var err error
		if s, dur, err = cfSetup(o, f, op); err != nil {
			return nil, err
		}
		durs = append(durs, dur)
	}
	r.e2e["setup_s"] = medianDur(durs)
	r.e2e["recovery_s"] = medianDur(durs[1:])
	r.notes["setup_s"] = fmt.Sprintf("median of %d setups", len(durs))
	r.notes["recovery_s"] = fmt.Sprintf("no journal: median of %d restarts (boot + re-enroll)", len(durs)-1)
	defer drop(s)
	d := s.d
	runtime.GC()

	base := map[string]uint64{}
	for _, st := range d.List() {
		base[st.Name] = st.Observation.Beats
	}
	ob := &observed{o: o, srv: s, mig0: d.Migrations()}
	ob.stats0, ob.shards0 = d.Stats(), d.ShardBeats()
	gc := gcStart()
	hp := sampleHeap()
	ob.loadStart = time.Now()

	// Connection 2: status reads and probes until the last tick.
	c2 := newClient(s.base, o.t)
	defer c2.close()
	l := &loop{}
	sr := &statusReader{c: c2, o: op, rng: o.rng(2), apps: f.load}
	pr := &chipProber{c: c2, o: op, apps: f.load, rng: o.rng(6)}
	running := func(time.Time) bool { return !pr.done.Load() }
	off := o.rng(3)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(cfStatusEvery)))), cfStatusEvery, running, sr.read)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(cfProbeEvery)))), cfProbeEvery, running,
		func(due time.Time) { pr.start(l, due) })
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		// A guard only: the series end with the last tick.
		if n := l.run(time.Now().Add(2 * time.Minute)); n > 0 {
			op.fail(fmt.Errorf("%d status operations abandoned at the deadline", n))
		}
	}()

	// Connection 1 (this goroutine): back-to-back ticks with churn
	// between them and one die saturated at the midpoint.
	c1 := newClient(s.base, o.t)
	defer c1.close()
	rng := o.rng(4)
	nTicks := max(4, int(o.seconds*cfTicksPerSecond))
	satTick, satDie := nTicks/2, rng.Intn(cfChips)
	ticks := &tickLog{}
	var withdrawnBeats uint64
	var placed map[string]int
	for k := 0; k < nTicks; k++ {
		for j := 0; k > 0 && j < cfChurnPerTick; j++ {
			name := f.aside[rng.Intn(len(f.aside))]
			// No tick is running, so the chip emits nothing between this
			// read and the withdraw: the app's beats so far are exact.
			if st, err := d.Status(name); err == nil {
				withdrawnBeats += st.Observation.Beats - base[name]
			}
			op.done(c1.withdraw("churn_withdraw", name))
			op.done(c1.enroll("churn_enroll", reqs[name]))
			base[name] = 0
		}
		if k == satTick {
			op.done(d.SaturateChip(satDie, cfSaturate))
		}
		if k == nTicks-1 {
			placed = placement(d.List())
		}
		pr.publish(tickStart{at: time.Now(), prevSim: d.Clock().Now()})
		ticks.tick(d, o.t)
	}
	pr.done.Store(true)
	ticksEnd := time.Now()
	<-loopDone
	ob.loadEnd = time.Now()
	ob.gcCycles, ob.gcPauses = gc.end() // before hp.end's forced collection
	r.e2e["heap_peak_mb"] = hp.end()
	ob.ticks = ticks
	ob.late = l.lateMs
	ob.stats1, ob.shards1 = d.Stats(), d.ShardBeats()
	ob.list = d.List()
	ob.chips = d.ChipStatuses()
	ob.mig1 = d.Migrations()

	emitted := ob.stats1.Beats - ob.stats0.Beats
	r.e2e["beats_per_s"] = float64(emitted) / ticksEnd.Sub(ob.loadStart).Seconds()
	// The chip emits beats inside Tick, so the tick that ingests them is
	// their acknowledgement: beat_ack is the tick's wall time here.
	r.timing(false, "beat_ack", "ms", ticks.durMs)
	r.timing(false, "decision_lag", "ms", pr.lags)
	r.timing(false, "tick", "ms", ticks.durMs)
	r.timing(false, "status", "ms", sr.ms)
	r.e2e["goal_attainment"] = attainment(ob.list, nil)

	var want uint64
	for _, st := range ob.list {
		want += st.Observation.Beats - base[st.Name]
	}
	want += withdrawnBeats
	r.check(emitted == want, "stats: %d beats ingested, the monitors account for %d", emitted, want)
	shardTotal, _ := sumShards(ob.shards0, ob.shards1)
	r.check(shardTotal == 0, "%d client beats ingested on a fleet nothing beats", shardTotal)
	moved := map[string]bool{}
	for name, chip := range placement(ob.list) {
		if was, ok := placed[name]; ok && was != chip {
			moved[name] = true
		}
	}
	r.checkServed(d, ob.list, len(f.reqs), moved)
	r.account(op)
	if o.t != nil {
		r.layers(ob)
	}
	return r, nil
}

// placement maps each chip-backed app to its die.
func placement(list []server.AppStatus) map[string]int {
	out := make(map[string]int, len(list))
	for _, st := range list {
		if st.Chip != nil {
			out[st.Name] = st.Chip.Chip
		}
	}
	return out
}
