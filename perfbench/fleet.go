package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"angstrom/internal/server"
)

const (
	// period is the daemon's decision period on every workload.
	period = 100 * time.Millisecond
	// setups is how many times each pass builds its fleet from scratch;
	// setup_s is their median and the last one carries the load.
	setups = 3
	// pollEvery is how often a decision-lag probe re-reads status: well
	// under the period, so the lag resolves to a few milliseconds.
	pollEvery = 5 * time.Millisecond
	// statusEvery paces the open-loop status reads (100/s).
	statusEvery = 10 * time.Millisecond
)

// fleet is a seeded set of enrollments.
type fleet struct {
	reqs []server.EnrollRequest
	// load names the apps the load generator drives; aside the apps the
	// workload reserves for one purpose (decision-lag probes that nothing
	// else beats, or the churn set status reads must avoid).
	load, aside []string
}

// newFleet draws n enrollments: seeded names (so the shard each lands
// in moves with the seed), workload mix and goal band min_rate in
// [minLo, minHi) with max_rate = maxMul*min_rate; aside of them, chosen
// by the seed, are set aside.
func newFleet(rng *rand.Rand, prefix string, n, aside int, minLo, minHi, maxMul float64, window int, mode string) fleet {
	var f fleet
	for i := 0; i < n; i++ {
		min := minLo + rng.Float64()*(minHi-minLo)
		f.reqs = append(f.reqs, server.EnrollRequest{
			Name:     fmt.Sprintf("%s-%05d-%04x", prefix, i, rng.Intn(1<<16)),
			Workload: workloadNames[rng.Intn(len(workloadNames))],
			Window:   window,
			Mode:     mode,
			MinRate:  min,
			MaxRate:  maxMul * min,
		})
	}
	set := map[int]bool{}
	for _, i := range rng.Perm(n)[:aside] {
		set[i] = true
	}
	for i, r := range f.reqs {
		if set[i] {
			f.aside = append(f.aside, r.Name)
		} else {
			f.load = append(f.load, r.Name)
		}
	}
	return f
}

// attainment is the mean of min(1, window_rate/min_rate) over the apps
// in names (all apps when names is nil).
func attainment(list []server.AppStatus, names []string) float64 {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	var sum float64
	var n int
	for _, st := range list {
		if names != nil && !keep[st.Name] {
			continue
		}
		n++
		if st.Goal.MinRate > 0 {
			sum += math.Min(1, st.Observation.WindowRate/st.Goal.MinRate)
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// checkServed runs the checks every workload shares: the enrolled set is
// exactly want, every app has a decision, and no die's tile ledger
// caught a fault. Apps in moved (migrated by the last tick's scan,
// which drops the standing decision until the next tick by design) are
// exempt from the decision check.
func (r *result) checkServed(d *server.Daemon, list []server.AppStatus, want int, moved map[string]bool) {
	r.check(len(list) == want, "%d apps enrolled at the end, want %d", len(list), want)
	undecided, why := 0, ""
	for _, st := range list {
		if st.Decision == nil && !moved[st.Name] {
			undecided++
			why = st.Name + ": " + st.DecisionErr
		}
	}
	r.check(undecided == 0, "%d apps without a decision at the end (%s)", undecided, why)
	for _, c := range d.ChipStatuses() {
		r.check(c.LedgerFaults == 0, "die %d: %d ledger faults", c.Chip, c.LedgerFaults)
	}
}

// sumShards totals a ShardBeats delta.
func sumShards(before, after []uint64) (total uint64, skew float64) {
	var mx uint64
	for i := range after {
		v := after[i]
		if i < len(before) {
			v -= before[i]
		}
		total += v
		mx = max(mx, v)
	}
	if total > 0 {
		skew = float64(mx) / (float64(total) / float64(len(after)))
	}
	return total, skew
}

// medianDur is the median of ds in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
