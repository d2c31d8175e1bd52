package main

import (
	"fmt"
	"runtime"
	"time"

	"angstrom/internal/server"
)

// wire-firehose: ingestion-dominated. 1,000 advisory apps on the real
// clock, no journal. One binary-wire connection streams 100-beat frames
// round-robin over the handles, closed loop (fhWindow unacknowledged
// frames, then a flush barrier); one HTTP connection reads status and
// runs decision-lag probes open loop. Every app is active every tick.
const (
	fhApps   = 1000
	fhProbes = 16
	// fhSetups: a setup here takes ~0.1 s, so take more of them than the
	// large workloads do for a steadier setup_s and recovery_s.
	fhSetups     = 7
	fhFrameBeats = 100
	fhWindow     = 64
	// Goal bands: min_rate in [fhMinLo, fhMinHi) beats/s against the
	// ~17k beats/s each app receives on the reference host, so about a
	// third of the fleet is short of its goal and goal_attainment moves
	// with throughput, yet one stalled frame cycle at the end of the load
	// does not swing it.
	fhMinLo, fhMinHi = 2000.0, 24000.0
	// fhProbeEvery is prime in ms against the 100 ms period, so successive
	// probes land at every phase of the tick grid instead of a few.
	fhProbeEvery = 23 * time.Millisecond
)

type fhInstance struct {
	s       *serving
	wc      *server.WireClient
	handles []uint32
}

// kill drops the instance the way a crash would (no journal to drain).
func (in *fhInstance) kill() {
	if in.wc != nil {
		_ = in.wc.Close()
	}
	in.s.close()
	_ = in.s.d.Close()
}

// fhSetup is NewDaemon, the fleet's HTTP enrolls, one wire Hello per
// load app, and the first tick.
func fhSetup(o opts, f fleet, op *ops) (*fhInstance, time.Duration, error) {
	start := time.Now()
	d, err := server.NewDaemon(server.Config{Period: period})
	if err != nil {
		return nil, 0, err
	}
	s, err := serve(d, o.t, true)
	if err != nil {
		return nil, 0, err
	}
	in := &fhInstance{s: s}
	c := newClient(s.base, o.t)
	defer c.close()
	for _, req := range f.reqs {
		op.done(c.enroll("enroll", req))
	}
	if in.wc, err = server.DialWire(s.wireAddr); err != nil {
		in.kill()
		return nil, 0, err
	}
	for _, name := range f.load {
		h, err := in.wc.Hello(name)
		if op.done(err) {
			in.handles = append(in.handles, h)
		}
	}
	d.Tick()
	return in, time.Since(start), nil
}

func runFirehose(o opts) (*result, error) {
	r := newResult("wire-firehose")
	op := &ops{}
	f := newFleet(o.rng(1), "fh", o.scaled(fhApps, 24), o.scaled(fhProbes, 8), fhMinLo, fhMinHi, 2, 0, "")

	var durs []time.Duration
	var in *fhInstance
	for i := 0; i < fhSetups; i++ {
		if in != nil {
			in.kill()
			runtime.GC()
		}
		var dur time.Duration
		var err error
		if in, dur, err = fhSetup(o, f, op); err != nil {
			return nil, err
		}
		durs = append(durs, dur)
	}
	r.e2e["setup_s"] = medianDur(durs)
	// Without a journal a restart is a fresh boot plus the clients'
	// re-enrolment: setups 2..n each follow a kill of the previous daemon.
	r.e2e["recovery_s"] = medianDur(durs[1:])
	r.notes["setup_s"] = fmt.Sprintf("median of %d setups", len(durs))
	r.notes["recovery_s"] = fmt.Sprintf("no journal: median of %d restarts (boot + re-enroll + hello)", len(durs)-1)
	defer in.kill()
	d := in.s.d
	runtime.GC()

	ob := &observed{o: o, srv: in.s}
	ob.stats0, ob.shards0 = d.Stats(), d.ShardBeats()
	gc := gcStart()
	hp := sampleHeap()
	ob.loadStart = time.Now()
	end := ob.loadStart.Add(time.Duration(o.seconds * float64(time.Second)))

	stopTicks := make(chan struct{})
	ticksDone := make(chan *tickLog, 1)
	go func() { ticksDone <- realClockTicks(d, period, stopTicks, o.t) }()

	// Connection 2: open-loop status reads and decision-lag probes.
	c2 := newClient(in.s.base, o.t)
	defer c2.close()
	l := &loop{}
	sr := &statusReader{c: c2, o: op, rng: o.rng(2), apps: f.load}
	pr := &prober{c: c2, o: op, apps: f.aside, busy: make([]bool, len(f.aside)), every: pollEvery}
	before := func(t time.Time) bool { return t.Before(end) }
	off := o.rng(3)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(statusEvery)))), statusEvery, before, sr.read)
	l.every(ob.loadStart.Add(time.Duration(off.Int63n(int64(fhProbeEvery)))), fhProbeEvery, before,
		func(due time.Time) { pr.start(l, due) })
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		if n := l.run(end.Add(probeTimeout + time.Second)); n > 0 {
			op.fail(fmt.Errorf("%d probe operations abandoned at the deadline", n))
		}
	}()

	// Connection 1 (this goroutine): the closed-loop wire stream.
	var acks []float64
	next := 0
	for time.Now().Before(end) && len(in.handles) > 0 {
		batch := o.t.id()
		bstart := time.Now()
		n := 0
		for ; n < fhWindow; n++ {
			h := in.handles[next]
			next = (next + 1) % len(in.handles)
			t0 := time.Now()
			err := in.wc.Beats(h, fhFrameBeats, 0)
			if n == 0 { // one sampled write per window keeps the span dump small
				o.t.add("wire.write", batch, batch, t0, time.Now())
			}
			if !op.done(err) {
				break
			}
			ob.wireSent += fhFrameBeats
			ob.wireFrames++
		}
		f0 := time.Now()
		total, err := in.wc.Flush()
		ack := time.Now()
		o.t.add("wire.flush", batch, batch, f0, ack)
		o.t.addID(batch, "gen.wire_batch", batch, 0, bstart, ack)
		if !op.done(err) {
			break
		}
		ob.wireAcked = int64(total)
		if n > 0 {
			acks = append(acks, ms64(ack.Sub(bstart)))
		}
		if n < fhWindow {
			break
		}
		// Yield at every barrier: without it the stream and the daemon's
		// wire goroutine kept the processors to themselves, and ticks and
		// connection 2 ran up to hundreds of milliseconds late — an
		// artefact of sharing the daemon's process that a client in its
		// own process would not cause.
		runtime.Gosched()
	}
	wireEnd := time.Now()
	// Probes resolve on ticks, so the ticker outlives connection 2.
	<-loopDone
	close(stopTicks)
	ticks := <-ticksDone
	ob.loadEnd = time.Now()
	ob.gcCycles, ob.gcPauses = gc.end() // before hp.end's forced collection
	r.e2e["heap_peak_mb"] = hp.end()
	ob.ticks = ticks
	ob.late = l.lateMs
	ob.stats1, ob.shards1 = d.Stats(), d.ShardBeats()
	ob.list = d.List()
	ob.clientBeats = ob.wireAcked + pr.beats

	r.e2e["beats_per_s"] = float64(ob.clientBeats) / wireEnd.Sub(ob.loadStart).Seconds()
	r.timing(false, "beat_ack", "ms", acks)
	r.timing(false, "decision_lag", "ms", pr.lags)
	r.timing(false, "tick", "ms", ticks.durMs)
	r.timing(false, "status", "ms", sr.ms)
	r.e2e["goal_attainment"] = attainment(ob.list, f.load)

	r.check(ob.wireAcked == ob.wireSent, "wire: final flush acked %d beats, sent %d", ob.wireAcked, ob.wireSent)
	ingested := int64(ob.stats1.Beats - ob.stats0.Beats)
	r.check(ingested == ob.clientBeats, "stats: %d beats ingested, generator had %d acknowledged", ingested, ob.clientBeats)
	shardTotal, _ := sumShards(ob.shards0, ob.shards1)
	r.check(int64(shardTotal) == ingested, "shard beats %d disagree with stats %d", shardTotal, ingested)
	r.checkServed(d, ob.list, len(f.reqs), nil)
	r.account(op)
	if o.t != nil {
		r.layers(ob)
	}
	return r, nil
}
