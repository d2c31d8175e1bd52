package core

// Broker is the federation layer's global arbiter: one level above the
// per-chip Managers, it splits a fleet-wide resource budget (core
// units, watts) across chips by each chip's aggregate corrected need —
// the same water-filling idea the Managers apply per application,
// lifted one level. The hierarchy keeps every Step incremental: the
// broker only moves each Manager's budget; demand caches, sort orders,
// and quiescence state inside the Managers survive untouched.
//
// Determinism contract: both splits are pure functions of their
// arguments, use index order for every tie-break, and allocate nothing
// in steady state — the per-chip budgets they produce feed journaled
// tick state, so replay must reproduce them bit for bit.
type Broker struct {
	out     []int
	floors  []int
	excess  []float64
	outW    []float64
	rank    []int
	demands []float64
}

// NewBroker builds an empty broker; scratch grows to the chip count.
func NewBroker() *Broker { return &Broker{} }

// SplitUnits divides `total` resource units across the per-chip
// managers by last tick's aggregate demand (Manager.AggregateDemand).
// Every non-empty manager is floored first — at its app count when the
// fleet is space-shared (each app keeps >= 1 unit), at one unit when
// oversubscribed — then the surplus is split proportionally to demand
// beyond the floor with largest-remainder rounding. Units no chip
// demands stay unallocated, mirroring Manager.partition.
//
// caps, when non-nil, is each chip's capacity (its tile count): no
// grant exceeds it. Units a capped grant gives up are re-spread over
// the chips still below their caps, weighted by demand beyond what they
// were granted, until none spill or no chip below its cap has demand
// left; what is left then stays unallocated. One chip is granted
// min(total, cap). nil caps leave every grant as it was uncapped. The
// returned slice is valid until the next call.
func (b *Broker) SplitUnits(total int, mgrs []*Manager, caps []int) []int {
	n := len(mgrs)
	b.out = resizeInts(b.out, n)
	if n == 1 {
		// Single chip: the broker is the identity, bit for bit, up to
		// the die's capacity.
		b.out[0] = total
		if caps != nil && caps[0] < total {
			b.out[0] = caps[0]
		}
		return b.out
	}
	b.floors = resizeInts(b.floors, n)
	b.excess = resizeF(b.excess, n)
	b.demands = resizeF(b.demands, n)

	floorSum := 0
	for i, m := range mgrs {
		f := 0
		if apps := m.Apps(); apps > 0 {
			if m.Oversubscribed() {
				f = 1
			} else {
				f = apps
			}
			if f > total-floorSum {
				f = total - floorSum // admission should prevent this; never go negative
			}
			if caps != nil && f > caps[i] {
				f = caps[i]
			}
		}
		b.floors[i] = f
		floorSum += f
		b.demands[i] = m.AggregateDemand()
	}

	for i := range b.out {
		b.out[i] = b.floors[i]
		e := b.demands[i] - float64(b.floors[i])
		if e < 0 || b.floors[i] == 0 {
			e = 0 // empty chips and chips already satisfied claim no surplus
		}
		b.excess[i] = e
	}
	b.apportion(total - floorSum)
	if caps == nil {
		return b.out
	}
	// Each round caps at least one more chip, so n rounds suffice.
	for round := 0; round < n; round++ {
		spill := 0
		for i, c := range caps {
			if b.out[i] > c {
				spill += b.out[i] - c
				b.out[i] = c
			}
		}
		if spill == 0 {
			break
		}
		for i, c := range caps {
			e := b.demands[i] - float64(b.out[i])
			if e < 0 || b.floors[i] == 0 || b.out[i] >= c {
				e = 0
			}
			b.excess[i] = e
		}
		b.apportion(spill)
	}
	return b.out
}

// apportion adds `units` to b.out in proportion to the weights in
// b.excess, by largest remainder with ties by chip index: integral,
// exact, and deterministic. Nothing is added when units or the weights
// sum to zero. b.excess is overwritten with the remainders.
func (b *Broker) apportion(units int) {
	var sum float64
	for _, e := range b.excess {
		sum += e
	}
	if units <= 0 || sum <= 0 {
		return
	}
	granted := 0
	b.rank = b.rank[:0]
	for i := range b.excess {
		exact := float64(units) * b.excess[i] / sum
		whole := int(exact)
		b.out[i] += whole
		granted += whole
		b.excess[i] = exact - float64(whole) // reuse as the remainder key
		if b.excess[i] > 0 {
			b.rank = append(b.rank, i)
		}
	}
	// Insertion sort by descending remainder, then index: the rank holds
	// one entry per chip, and sort.Slice would allocate.
	for x := 1; x < len(b.rank); x++ {
		for y := x; y > 0 && b.remainderLess(b.rank[y], b.rank[y-1]); y-- {
			b.rank[y], b.rank[y-1] = b.rank[y-1], b.rank[y]
		}
	}
	for _, i := range b.rank {
		if granted >= units {
			break
		}
		b.out[i]++
		granted++
	}
}

// remainderLess orders chips for the largest-remainder pass.
func (b *Broker) remainderLess(i, j int) bool {
	if b.excess[i] != b.excess[j] {
		return b.excess[i] > b.excess[j]
	}
	return i < j
}

// SplitWatts divides an available power budget across chips: each chip
// is floored at `floor[i]` (the watts its apps need just to idle at
// their minimum operating points), then the remainder is granted
// toward each chip's full need proportionally to need beyond the
// floor, iterating so watts a satisfied chip cannot use flow to the
// others — the float water-fill counterpart of SplitUnits. The
// returned slice is valid until the next call.
func (b *Broker) SplitWatts(avail float64, need, floor []float64) []float64 {
	n := len(need)
	b.outW = resizeF(b.outW, n)
	if n == 1 {
		b.outW[0] = avail
		return b.outW
	}
	var floorSum float64
	for i := range b.outW {
		b.outW[i] = floor[i]
		floorSum += floor[i]
	}
	remaining := avail - floorSum
	if remaining <= 0 {
		return b.outW
	}
	// A few passes reach the fixed point: chips whose need is met drop
	// out and their unused grant is re-split over the rest.
	for iter := 0; iter < 4 && remaining > 1e-12; iter++ {
		var wantSum float64
		for i := range b.outW {
			if w := need[i] - b.outW[i]; w > 0 {
				wantSum += w
			}
		}
		if wantSum <= 0 {
			break
		}
		grant := remaining
		for i := range b.outW {
			w := need[i] - b.outW[i]
			if w <= 0 {
				continue
			}
			g := grant * w / wantSum
			if g > w {
				g = w
			}
			b.outW[i] += g
			remaining -= g
		}
	}
	return b.outW
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
