package core

import (
	"fmt"
	"math"
	"testing"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// brokerDie is one die's manager as the broker sees it: an app count,
// the admission mode, and the aggregate corrected demand the last Step
// cached (spread evenly over the die's apps).
type brokerDie struct {
	apps    int
	oversub bool
	demand  float64
}

// brokerManagers builds one Manager per die with total units each and
// plants each die's aggregate demand in the per-app demand caches — the
// only Manager state SplitUnits reads besides Apps and Oversubscribed.
func brokerManagers(t *testing.T, total int, dies []brokerDie) []*Manager {
	t.Helper()
	clock := sim.NewClock(0)
	mgrs := make([]*Manager, len(dies))
	for i, die := range dies {
		m, err := NewManager(clock, total)
		if err != nil {
			t.Fatal(err)
		}
		m.SetOversubscription(die.oversub)
		for j := 0; j < die.apps; j++ {
			mon := heartbeat.New(clock)
			mon.SetPerformanceGoal(1, 0)
			if err := m.AddApp(fmt.Sprintf("d%d-a%d", i, j), mon, func(u int) float64 { return float64(u) }); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range m.apps {
			a.demand = die.demand / float64(die.apps)
		}
		if got := m.AggregateDemand(); math.Abs(got-die.demand) > 1e-9 {
			t.Fatalf("die %d aggregate demand %g, want %g", i, got, die.demand)
		}
		mgrs[i] = m
	}
	return mgrs
}

func TestBrokerSplitUnits(t *testing.T) {
	cases := []struct {
		name  string
		total int
		dies  []brokerDie
		want  []int
	}{
		{
			// The one-die daemon's only path: the whole pool, whatever
			// the die's demand or admission mode.
			name: "one die is the identity", total: 64,
			dies: []brokerDie{{apps: 3, demand: 5}},
			want: []int{64},
		},
		{
			name: "one oversubscribed die is the identity", total: 8,
			dies: []brokerDie{{apps: 20, oversub: true, demand: 100}},
			want: []int{8},
		},
		{
			name: "one empty die is the identity", total: 16,
			dies: []brokerDie{{}},
			want: []int{16},
		},
		{
			name: "empty die gets 0", total: 20,
			dies: []brokerDie{{apps: 2, demand: 10}, {}, {apps: 1, demand: 5}},
			// floors [2 0 1], surplus 17 over excess [8 0 4]: 11.33 / 5.67.
			want: []int{13, 0, 7},
		},
		{
			name: "space-shared floors at the app count", total: 10,
			dies: []brokerDie{{apps: 4}, {apps: 3}},
			want: []int{4, 3},
		},
		{
			name: "oversubscribed floors at one unit", total: 10,
			dies: []brokerDie{{apps: 4, oversub: true}, {apps: 3, oversub: true}},
			want: []int{1, 1},
		},
		{
			// Demand already under the floor claims no surplus.
			name: "space-shared demand below floor", total: 12,
			dies: []brokerDie{{apps: 4, demand: 2}, {apps: 2, demand: 6}},
			want: []int{4, 8},
		},
		{
			name: "oversubscribed surplus follows demand", total: 12,
			dies: []brokerDie{{apps: 4, oversub: true, demand: 3}, {apps: 4, oversub: true, demand: 9}},
			// floors [1 1], surplus 10 over excess [2 8].
			want: []int{3, 9},
		},
		{
			// Equal remainders: the leftover unit goes to the lowest index.
			name: "remainder tie goes to die 0", total: 4,
			dies: []brokerDie{
				{apps: 1, oversub: true, demand: 2},
				{apps: 1, oversub: true, demand: 2},
				{apps: 1, oversub: true, demand: 2},
			},
			want: []int{2, 1, 1},
		},
		{
			name: "two remainder ties go to dies 0 and 1", total: 5,
			dies: []brokerDie{
				{apps: 1, oversub: true, demand: 2},
				{apps: 1, oversub: true, demand: 2},
				{apps: 1, oversub: true, demand: 2},
			},
			want: []int{2, 2, 1},
		},
		{
			// The larger remainder wins before index order is consulted.
			name: "largest remainder first", total: 4,
			dies: []brokerDie{
				{apps: 1, oversub: true, demand: 1.3},
				{apps: 1, oversub: true, demand: 2.7},
			},
			// floors [1 1], surplus 2 over excess [0.3 1.7]: 0.3 / 1.7.
			want: []int{1, 3},
		},
		{
			name: "floors clamp to a pool too small for them", total: 3,
			dies: []brokerDie{{apps: 2}, {apps: 2}},
			want: []int{2, 1},
		},
	}
	b := NewBroker()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := b.SplitUnits(tc.total, brokerManagers(t, tc.total, tc.dies))
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("SplitUnits(%d) = %v, want %v", tc.total, got, tc.want)
			}
			sum := 0
			for _, u := range got {
				sum += u
			}
			if sum > tc.total {
				t.Fatalf("grants %v sum to %d > total %d", got, sum, tc.total)
			}
		})
	}
}

// Seeded sweep over random fleets: grants never exceed the pool, empty
// dies get nothing, and every non-empty die keeps its floor whenever the
// pool covers all floors.
func TestBrokerSplitUnitsInvariants(t *testing.T) {
	rng := sim.NewRNG(7)
	b := NewBroker()
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		total := 1 + rng.Intn(64)
		oversub := rng.Intn(2) == 0
		dies := make([]brokerDie, n)
		floorSum := 0
		for i := range dies {
			if rng.Intn(4) == 0 {
				continue // empty die
			}
			dies[i] = brokerDie{apps: 1 + rng.Intn(8), oversub: oversub, demand: 20 * rng.Float64()}
			if oversub {
				floorSum++
			} else {
				floorSum += dies[i].apps
			}
		}
		got := b.SplitUnits(total, brokerManagers(t, 64, dies))
		sum := 0
		for i, u := range got {
			sum += u
			if u < 0 {
				t.Fatalf("trial %d: negative grant %v", trial, got)
			}
			if dies[i].apps == 0 && u != 0 {
				t.Fatalf("trial %d: empty die %d granted %d (%v)", trial, i, u, got)
			}
			floor := 1
			if !oversub {
				floor = dies[i].apps
			}
			if dies[i].apps > 0 && floorSum <= total && u < floor {
				t.Fatalf("trial %d: die %d granted %d below its floor %d (%v)", trial, i, u, floor, got)
			}
		}
		if sum > total {
			t.Fatalf("trial %d: grants %v sum to %d > total %d", trial, got, sum, total)
		}
	}
}

func TestBrokerSplitWatts(t *testing.T) {
	cases := []struct {
		name        string
		avail       float64
		need, floor []float64
		want        []float64
	}{
		{
			// The one-die daemon's only path: the whole envelope.
			name: "one die is the identity", avail: 10,
			need: []float64{3}, floor: []float64{1},
			want: []float64{10},
		},
		{
			name: "one die below its floor is the identity", avail: 0.5,
			need: []float64{3}, floor: []float64{1},
			want: []float64{0.5},
		},
		{
			name: "empty die gets 0", avail: 8,
			need: []float64{4, 0, 10}, floor: []float64{1, 0, 1},
			// remaining 6 over want [3 0 9].
			want: []float64{2.5, 0, 5.5},
		},
		{
			name: "surplus follows need beyond the floor", avail: 10,
			need: []float64{2, 10}, floor: []float64{1, 1},
			want: []float64{1.8, 8.2},
		},
		{
			// Every die's need fits: nobody is granted past it and the
			// slack stays unallocated.
			name: "satisfied dies keep only their need", avail: 10,
			need: []float64{2, 3}, floor: []float64{1, 1},
			want: []float64{2, 3},
		},
		{
			// Floors are the dies' cheapest operating points; they are
			// honoured even past the envelope (the daemon surfaces the
			// overdraft as PowerOvercommitW).
			name: "floors beyond the envelope", avail: 1,
			need: []float64{4, 4}, floor: []float64{1, 1},
			want: []float64{1, 1},
		},
	}
	b := NewBroker()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := b.SplitWatts(tc.avail, tc.need, tc.floor)
			if len(got) != len(tc.want) {
				t.Fatalf("SplitWatts = %v, want %v", got, tc.want)
			}
			var sum, floorSum float64
			for i := range got {
				if math.Abs(got[i]-tc.want[i]) > 1e-9 {
					t.Fatalf("SplitWatts = %v, want %v", got, tc.want)
				}
				sum += got[i]
				floorSum += tc.floor[i]
			}
			if floorSum <= tc.avail && sum > tc.avail+1e-9 {
				t.Fatalf("grants %v sum to %g > avail %g", got, sum, tc.avail)
			}
		})
	}
}
