package main

import (
	"time"

	"angstrom/internal/server"
)

// observed is what a traced pass saw, from which the per-layer metrics
// are derived. Spans come from o.t; the rest from public daemon reads
// bracketing the load window [loadStart, loadEnd].
type observed struct {
	o                  opts
	loadStart, loadEnd time.Time
	ticks              *tickLog
	stats0, stats1     server.StatsResponse
	shards0, shards1   []uint64
	list               []server.AppStatus
	chips              []server.ChipStatusResponse
	// clientBeats is the generator's count of beats the daemon
	// acknowledged during the load (wire flush totals and HTTP 202s).
	clientBeats int64
	// late is how late the open-loop generators ran (ms).
	late     []float64
	gcCycles int
	gcPauses []float64
	// Wire stream (zero on workloads without one).
	wireSent, wireAcked, wireFrames int64
	srv                             *serving
	// Journal (nil fs on workloads without one).
	fs                 *tracedFS
	fsBytes0, fsBytes1 int64
	fsSyncs0, fsSyncs1 int64
	replayed           int
	mig0, mig1         uint64
}

const us = time.Microsecond

// layers fills r.layer with every per-layer metric.
func (r *result) layers(ob *observed) {
	L := r.layer
	for _, m := range perLayer {
		L[m.name] = 0
	}
	spans := ob.o.t.all()
	w0, w1 := ob.o.t.ns(ob.loadStart), ob.o.t.ns(ob.loadEnd)
	var inLoad []span
	for _, s := range spans {
		if s.Start >= w0 && s.Start <= w1 {
			inLoad = append(inLoad, s)
		}
	}
	all := byName(spans, us)
	load := byName(inLoad, us)
	wall := ob.loadEnd.Sub(ob.loadStart)

	// server: HTTP handler time per route; the client's self time around
	// it is the transport and JSON cost outside the handler.
	r.timing(true, "server.http.beats.serve", "us", all["http.beats"])
	r.timing(true, "server.http.status.serve", "us", all["http.status"])
	r.timing(true, "server.http.enroll.serve", "us", all["http.enroll"])
	r.timing(true, "server.http.goal.serve", "us", all["http.goal"])
	var overhead []float64
	for name, xs := range selfTimes(spans, us) {
		if len(name) > 4 && name[:4] == "gen." {
			overhead = append(overhead, xs...)
		}
	}
	L["server.http.client_overhead_p50_us"] = median(overhead)
	if ob.srv != nil && ob.srv.handler != nil {
		L["server.http.errors"] = float64(ob.srv.handler.errors.Load())
	}

	// server: binary wire stream.
	if ob.wireSent > 0 {
		L["server.wire.frames"] = float64(ob.wireFrames)
		L["server.wire.bytes_per_beat"] = float64(ob.srv.wireBytes.Load()) / float64(ob.wireSent)
		L["server.wire.write_p50_us"] = median(all["wire.write"])
		r.timing(true, "server.wire.flush_rtt", "us", all["wire.flush"])
		L["server.wire.acked_ratio"] = float64(ob.wireAcked) / float64(ob.wireSent)
	}

	// server: the tick, as the harness drove it.
	if n := len(ob.ticks.durMs); n > 0 {
		L["server.tick.busy_frac"] = ob.ticks.busy.Seconds() / wall.Seconds()
		if len(ob.ticks.lateMs) > 0 {
			L["server.tick.late_tail_ms"] = summarize(ob.ticks.lateMs).Tail
		}
		if ob.stats1.Apps > 0 {
			L["server.tick.step_ratio"] = float64(ob.stats1.Decisions-ob.stats0.Decisions) / float64(ob.stats1.Apps*n)
		}
		L["server.tick.allocs_per_tick"] = median(ob.ticks.allocs)
		L["server.tick.alloc_bytes_per_tick"] = median(ob.ticks.allocBytes)
	}
	L["server.churn.enroll_tail_us"] = summarize(load["gen.churn_enroll"]).Tail
	L["server.churn.withdraw_tail_us"] = summarize(load["gen.churn_withdraw"]).Tail

	// heartbeat: how much of what was sent the monitors absorbed, and how
	// evenly the directory shards absorbed it.
	if ob.clientBeats > 0 {
		L["heartbeat.ingested_ratio"] = float64(ob.stats1.Beats-ob.stats0.Beats) / float64(ob.clientBeats)
	}
	_, L["heartbeat.shard_skew"] = sumShards(ob.shards0, ob.shards1)

	// core: the managers' allocation views.
	var slow []float64
	for _, st := range ob.list {
		if st.Cores.GoalFit {
			L["core.goal_fit_frac"]++
		}
		L["core.demand_units"] += st.Cores.Demand
		share := st.Cores.Share
		if share == 0 {
			share = 1
		}
		L["core.granted_units"] += float64(st.Cores.Units) * share
		if st.Chip != nil {
			slow = append(slow, st.Chip.Slowdown)
		}
	}
	if len(ob.list) > 0 {
		L["core.goal_fit_frac"] /= float64(len(ob.list))
	}

	// angstrom: per-die ledgers.
	for i, c := range ob.chips {
		u := c.CoreEquivalents / float64(c.Tiles)
		if i == 0 || u < L["angstrom.die_util_min"] {
			L["angstrom.die_util_min"] = u
		}
		L["angstrom.die_util_max"] = max(L["angstrom.die_util_max"], u)
		L["angstrom.mem_rho_max"] = max(L["angstrom.mem_rho_max"], c.MemRho)
		L["angstrom.ledger_faults"] += float64(c.LedgerFaults)
	}
	L["angstrom.slowdown_p50"] = median(slow)
	L["angstrom.migrations"] = float64(ob.mig1 - ob.mig0)

	// journal: filesystem calls during the load, and the recovery boots.
	if ob.fs != nil {
		L["journal.write_bytes_per_s"] = float64(ob.fsBytes1-ob.fsBytes0) / wall.Seconds()
		L["journal.write_tail_us"] = summarize(load["journal.write"]).Tail
		sync := byName(inLoad, time.Millisecond)["journal.sync"]
		L["journal.sync_p50_ms"] = median(sync)
		L["journal.sync_tail_ms"] = summarize(sync).Tail
		if syncs := ob.fsSyncs1 - ob.fsSyncs0; syncs > 0 && ob.stats0.Journal != nil && ob.stats1.Journal != nil {
			L["journal.records_per_sync"] = float64(ob.stats1.Journal.Records-ob.stats0.Journal.Records) / float64(syncs)
		}
		var read []float64
		kids := children(spans)
		for _, s := range spans {
			if s.Name == "recover.boot" {
				read = append(read, float64(covered(s, kids[s.ID]))/float64(time.Millisecond))
			}
		}
		L["journal.recover_read_ms"] = median(read)
		L["journal.replay_ms"] = median(selfTimes(spans, time.Millisecond)["recover.boot"])
		L["journal.replayed_records"] = float64(ob.replayed)
	}

	// Go runtime and the generator itself.
	L["go.gc_cycles"] = float64(ob.gcCycles)
	L["go.gc_pause_tail_ms"] = summarize(ob.gcPauses).Tail
	L["gen.late_tail_ms"] = summarize(ob.late).Tail
}
