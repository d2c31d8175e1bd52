package angstrom

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

func newSharedChip(t testing.TB, tiles int) *SharedChip {
	t.Helper()
	sc, err := NewSharedChip(DefaultParams(), tiles)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func acquire(t testing.TB, sc *SharedChip, name string, cores int, share float64) (*Partition, *heartbeat.Monitor) {
	t.Helper()
	spec, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock, heartbeat.WithWindow(64))
	pt, err := sc.Acquire(name, workload.NewInstance(spec, 1), mon,
		Config{Cores: cores, CacheKB: 64, VF: 0}, share, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pt, mon
}

func TestSharedChipLedger(t *testing.T) {
	sc := newSharedChip(t, 8)
	a, _ := acquire(t, sc, "a", 4, 1)
	b, _ := acquire(t, sc, "b", 2, 1)
	if parts, used := sc.Usage(); parts != 2 || used != 6 {
		t.Fatalf("usage = %d parts, %g core-equivalents; want 2, 6", parts, used)
	}
	// Growth beyond the pool is refused; the old config survives.
	cfg := a.Config()
	cfg.Cores = 8
	if err := a.setConfig(cfg); !errors.Is(err, ErrTilePool) {
		t.Fatalf("8+2 cores on an 8-tile chip: err = %v, want ErrTilePool", err)
	}
	if a.Config().Cores != 4 {
		t.Fatalf("failed resize mutated config to %d cores", a.Config().Cores)
	}
	// Halving b's time share frees core-equivalents for a to grow.
	cfgB := b.Config()
	cfgB.Cores = 1
	if err := b.setConfig(cfgB); err != nil {
		t.Fatal(err)
	}
	if err := b.SetShare(0.5); err != nil {
		t.Fatal(err)
	}
	if _, used := sc.Usage(); used != 4.5 {
		t.Fatalf("used = %g after shrink, want 4.5", used)
	}
	sc.Release("b")
	if err := a.setConfig(cfg); err != nil {
		t.Fatalf("4 core-equivalents free but 8-core resize refused: %v", err)
	}
	sc.Release("a")
	if parts, used := sc.Usage(); parts != 0 || used != 0 {
		t.Fatalf("after release: %d parts, %g used; want 0, 0", parts, used)
	}
	// Operations on a released partition fail cleanly.
	if err := a.Advance(1); err == nil {
		t.Fatal("released partition advanced")
	}
	if err := a.SetShare(0.5); err == nil {
		t.Fatal("released partition reshared")
	}
	sc.Release("nosuch") // no-op
}

// A time-share grow past the pool is refused with the ErrTilePool
// sentinel, and the refusal allocates nothing; other failures are not
// refusals.
func TestSharedChipShareRefusal(t *testing.T) {
	sc := newSharedChip(t, 2)
	x, _ := acquire(t, sc, "x", 2, 0.5)
	acquire(t, sc, "y", 1, 1)
	if err := x.SetShare(1); !errors.Is(err, ErrTilePool) {
		t.Fatalf("share grow past the pool: err = %v, want ErrTilePool", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = x.SetShare(1) }); n != 0 {
		t.Fatalf("a refused share grow allocates %g times", n)
	}
	if x.Share() != 0.5 {
		t.Fatalf("refused grow moved the share to %g", x.Share())
	}
	sc.Release("x")
	if err := x.SetShare(0.25); err == nil || errors.Is(err, ErrTilePool) {
		t.Fatalf("released partition reshared: err = %v, want a non-pool error", err)
	}
}

func TestSharedChipAcquireValidation(t *testing.T) {
	sc := newSharedChip(t, 8)
	spec, _ := workload.ByName("barnes")
	inst := workload.NewInstance(spec, 1)
	mon := heartbeat.New(sim.NewClock(0))
	good := Config{Cores: 1, CacheKB: 64, VF: 0}
	if _, err := sc.Acquire("x", nil, mon, good, 1, 0); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := sc.Acquire("x", inst, nil, good, 1, 0); err == nil {
		t.Fatal("nil monitor accepted")
	}
	if _, err := sc.Acquire("x", inst, mon, Config{Cores: 3, CacheKB: 64}, 1, 0); err == nil {
		t.Fatal("non-power-of-two cores accepted")
	}
	if _, err := sc.Acquire("x", inst, mon, good, 1.5, 0); err == nil {
		t.Fatal("share > 1 accepted")
	}
	if _, err := sc.Acquire("x", inst, mon, good, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Acquire("x", inst, mon, good, 1, 0); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := sc.Acquire("y", inst, mon, Config{Cores: 16, CacheKB: 64}, 1, 0); err == nil {
		t.Fatal("16 cores fit 7 free tiles")
	}
}

// Advance emits beats at model-exact times: the monitor's windowed rate
// matches the model's share-scaled heart rate, with timestamps strictly
// inside the advanced interval.
func TestPartitionAdvanceEmitsModelRate(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, mon := acquire(t, sc, "a", 4, 0.5)
	want := pt.Sense().HeartRate
	if full := pt.Metrics().HeartRate; math.Abs(want-full*0.5) > 1e-9*full {
		t.Fatalf("share-scaled rate %g, model %g at share 0.5", want, full)
	}
	if err := pt.Advance(2); err != nil {
		t.Fatal(err)
	}
	obs := mon.Observe()
	if obs.Beats == 0 {
		t.Fatal("no beats after 2s")
	}
	if rel := math.Abs(obs.WindowRate-want) / want; rel > 0.25 {
		t.Fatalf("window rate %g vs model %g (%.0f%% off)", obs.WindowRate, want, rel*100)
	}
	for _, r := range mon.Window() {
		if r.Time <= 0 || r.Time > 2 {
			t.Fatalf("beat stamped at %g outside (0, 2]", r.Time)
		}
	}
	if now := pt.Now(); now != 2 {
		t.Fatalf("frontier %g after Advance(2)", now)
	}
	if err := pt.Advance(1); err != nil {
		t.Fatal(err) // no-op, never backwards
	}
	if pt.Sense().EnergyJ <= 0 {
		t.Fatal("no energy attributed")
	}
}

// Reconfiguring mid-run changes the rate going forward and keeps beat
// accounting consistent (work carry, no double emission).
func TestPartitionReconfigureMidRun(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, mon := acquire(t, sc, "a", 1, 1)
	if err := pt.Advance(1); err != nil {
		t.Fatal(err)
	}
	slowBeats := mon.Count()
	cores, cache, dvfs, err := pt.Knobs([]int{1, 2, 4, 8}, []int{32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := cores.SetLevel(3); err != nil {
		t.Fatal(err)
	}
	if err := dvfs.SetLevel(1); err != nil {
		t.Fatal(err)
	}
	if cache.Level() != 1 {
		t.Fatalf("cache level %d, want 1 (64KB)", cache.Level())
	}
	if got := pt.Config(); got.Cores != 8 || got.VF != 1 {
		t.Fatalf("config %+v after knob moves", got)
	}
	if err := pt.Advance(2); err != nil {
		t.Fatal(err)
	}
	fastBeats := mon.Count() - slowBeats
	if fastBeats <= slowBeats {
		t.Fatalf("8 cores at VF1 emitted %d beats/s vs %d at 1 core VF0", fastBeats, slowBeats)
	}
}

func TestPartitionKnobValidation(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, _ := acquire(t, sc, "a", 4, 1)
	if _, _, _, err := pt.Knobs([]int{1, 2}, []int{32, 64, 128}); err == nil {
		t.Fatal("core options missing current setting accepted")
	}
	if _, _, _, err := pt.Knobs([]int{4, 2, 1}, []int{64}); err == nil {
		t.Fatal("descending core options accepted")
	}
	cores, _, dvfs, err := pt.Knobs([]int{1, 2, 4, 8}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if err := cores.SetLevel(9); err == nil {
		t.Fatal("out-of-range core level accepted")
	}
	if err := dvfs.SetLevel(-1); err == nil {
		t.Fatal("negative VF level accepted")
	}
	if cores.Level() != 2 || cores.Levels() != 4 {
		t.Fatalf("core knob level %d/%d", cores.Level(), cores.Levels())
	}
}

// Sense is the serving hot path: it must not allocate.
func TestSenseZeroAlloc(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, _ := acquire(t, sc, "a", 4, 1)
	var s float64
	allocs := testing.AllocsPerRun(1000, func() { s += pt.Sense().IPS })
	if allocs != 0 {
		t.Fatalf("Sense allocates %g objects per call", allocs)
	}
	_ = s
}

// The partition surface is race-clean: knob moves, shares, Sense, and
// ledger reads from many goroutines while one goroutine advances.
func TestSharedChipConcurrent(t *testing.T) {
	sc := newSharedChip(t, 64)
	pt, _ := acquire(t, sc, "a", 4, 1)
	cores, cache, dvfs, err := pt.Knobs([]int{1, 2, 4, 8, 16}, []int{32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, k := range []struct {
		knob interface{ SetLevel(int) error }
	}{{cores}, {cache}, {dvfs}} {
		wg.Add(1)
		go func(set func(int) error) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = set(i % 3)
				i++
			}
		}(k.knob.SetLevel)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pt.Sense()
			sc.Usage()
			sc.TotalPowerW()
			_ = pt.SetShare(0.5)
			_ = pt.SetShare(1)
		}
	}()
	for i := 1; i <= 100; i++ {
		if err := pt.Advance(float64(i) * 0.01); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, used := sc.Usage(); used > 64 {
		t.Fatalf("ledger overdrawn: %g > 64", used)
	}
}

// KnobSpace declares the model's own predictions: the rung holding the
// base configuration's setting is the identity on every axis, and every
// other rung's effect is its heart rate and active power (beyond
// uncore) relative to the base configuration's. Applying a point drives
// the partition's knobs.
func TestKnobSpaceEffectsMatchModel(t *testing.T) {
	p := DefaultParams()
	spec, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Cores: 4, CacheKB: 64, VF: 1}
	coreOpts := []int{1, 2, 4, 8, 16}
	cacheOpts := []int{32, 64, 128}
	sc := newSharedChip(t, 64)
	pt, err := sc.Acquire("barnes", workload.NewInstance(spec, 1), heartbeat.New(sim.NewClock(0)), base, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cores, cache, dvfs, err := pt.Knobs(coreOpts, cacheOpts)
	if err != nil {
		t.Fatal(err)
	}
	space, err := KnobSpace(p, spec, base, coreOpts, cacheOpts, cores, cache, dvfs)
	if err != nil {
		t.Fatal(err)
	}
	baseM, err := Evaluate(p, spec, base)
	if err != nil {
		t.Fatal(err)
	}
	cfgAt := []func(int) Config{
		func(i int) Config { c := base; c.Cores = coreOpts[i]; return c },
		func(i int) Config { c := base; c.CacheKB = cacheOpts[i]; return c },
		func(i int) Config { c := base; c.VF = i; return c },
	}
	if len(space.Acts) != len(cfgAt) {
		t.Fatalf("%d actuators, want %d", len(space.Acts), len(cfgAt))
	}
	for ai, act := range space.Acts {
		for i, s := range act.Settings {
			cfg := cfgAt[ai](i)
			if cfg == base {
				if i != act.NominalIndex || s.Effect != actuator.Nominal() {
					t.Fatalf("%s rung %d holds the base setting: nominal index %d, effect %+v",
						act.Name, i, act.NominalIndex, s.Effect)
				}
				continue
			}
			m, err := Evaluate(p, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			speed := m.HeartRate / baseM.HeartRate
			power := (m.PowerW - p.UncoreW) / (baseM.PowerW - p.UncoreW)
			if math.Abs(s.Effect.Speedup-speed) > 1e-12*speed || math.Abs(s.Effect.PowerX-power) > 1e-12*power {
				t.Fatalf("%s rung %d (%+v): effect %+v, model speedup %g power %g",
					act.Name, i, cfg, s.Effect, speed, power)
			}
		}
	}
	if err := space.Apply(actuator.Config{0, 2, 0}); err != nil {
		t.Fatal(err)
	}
	if got, want := pt.Config(), (Config{Cores: 1, CacheKB: 128, VF: 0}); got != want {
		t.Fatalf("after Apply the partition runs %+v, want %+v", got, want)
	}
}

// makeRoomFloor is the admission floor the MakeRoom tests run at (the
// serving layer passes core.MinTimeShare, the same value).
const makeRoomFloor = 0.01

// shares snapshots every partition's time share in acquisition order.
func shares(sc *SharedChip) []float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]float64, len(sc.order))
	for i, pt := range sc.order {
		out[i] = pt.Share()
	}
	return out
}

// checkLedger fails unless the ledger equals the recomputed
// Σ cores × share and stays within the tile pool.
func checkLedger(t *testing.T, sc *SharedChip, step string) {
	t.Helper()
	sum := 0.0
	for _, pt := range sc.order {
		sum += float64(pt.Config().Cores) * pt.Share()
	}
	_, used := sc.Usage()
	if math.Abs(used-sum) > 1e-9 {
		t.Fatalf("%s: ledger %g, partitions sum to %g", step, used, sum)
	}
	if used > float64(sc.Tiles())+1e-9 {
		t.Fatalf("%s: ledger %g exceeds %d tiles", step, used, sc.Tiles())
	}
}

func TestMakeRoomFreeTile(t *testing.T) {
	// More partitions than tiles, but 1.6 tiles free: the newcomer gets
	// a whole one, not the fair slot 4/7.
	sc := newSharedChip(t, 4)
	acquire(t, sc, "a", 2, 0.4)
	for i := 0; i < 5; i++ {
		acquire(t, sc, fmt.Sprintf("p%d", i), 1, 0.32)
	}
	before := shares(sc)
	_, usedBefore := sc.Usage()
	share, err := sc.MakeRoom(makeRoomFloor)
	if err != nil || share != 1 {
		t.Fatalf("MakeRoom with a free tile = %g, %v; want 1, nil", share, err)
	}
	after := shares(sc)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("partition %d moved with a free tile: %g -> %g", i, before[i], after[i])
		}
	}
	if _, used := sc.Usage(); used != usedBefore {
		t.Fatalf("ledger %g -> %g with a free tile", usedBefore, used)
	}
}

func TestMakeRoomRefusesBelowFloor(t *testing.T) {
	// One tile split 100 ways at half the floor: half the tile is free,
	// but the next fair slot, 1/101, is below the floor, so the newcomer
	// is refused and nothing moves.
	sc := newSharedChip(t, 1)
	for i := 0; i < 100; i++ {
		acquire(t, sc, fmt.Sprintf("p%03d", i), 1, makeRoomFloor/2)
	}
	before := shares(sc)
	_, usedBefore := sc.Usage()
	if _, err := sc.MakeRoom(makeRoomFloor); err == nil {
		t.Fatal("slot below the floor admitted")
	}
	after := shares(sc)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("partition %d moved on a refused slot: %g -> %g", i, before[i], after[i])
		}
	}
	if _, used := sc.Usage(); used != usedBefore {
		t.Fatalf("refused slot changed the ledger: %g -> %g", usedBefore, used)
	}
}

func TestMakeRoomFlooredPoolFull(t *testing.T) {
	// Every incumbent already at the floor and the pool full: the fair
	// slot (4/101) clears the floor, but there is no mass left to
	// shrink, so the newcomer is refused and nobody moves.
	sc := newSharedChip(t, 4)
	for i := 0; i < 100; i++ {
		acquire(t, sc, fmt.Sprintf("p%03d", i), 4, makeRoomFloor)
	}
	before := shares(sc)
	if _, err := sc.MakeRoom(makeRoomFloor); err == nil {
		t.Fatal("full pool of floored partitions admitted a newcomer")
	}
	after := shares(sc)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("floored partition %d moved: %g -> %g", i, before[i], after[i])
		}
	}
	checkLedger(t, sc, "refused")
}

func TestMakeRoomShrinksIncumbents(t *testing.T) {
	sc := newSharedChip(t, 4)
	acquire(t, sc, "a", 2, 1)
	acquire(t, sc, "b", 1, 1)
	acquire(t, sc, "c", 1, 0.5)
	floored, _ := acquire(t, sc, "d", 1, makeRoomFloor)
	acquire(t, sc, "e", 1, 0.49)
	before := shares(sc)
	share, err := sc.MakeRoom(makeRoomFloor)
	if err != nil {
		t.Fatal(err)
	}
	if slot := 4.0 / 6; share < makeRoomFloor || share > slot+1e-12 {
		t.Fatalf("newcomer share %g outside [%g, %g]", share, makeRoomFloor, slot)
	}
	checkLedger(t, sc, "after shrink")
	// The shrink carves exactly the newcomer's slot: no more, no less.
	if _, used := sc.Usage(); math.Abs(4-used-share) > 1e-9 {
		t.Fatalf("shrink left %g tiles free for a %g slot", 4-used, share)
	}
	after := shares(sc)
	for i := range before {
		if before[i] > makeRoomFloor && after[i] >= before[i] {
			t.Fatalf("partition %d did not shrink: %g -> %g", i, before[i], after[i])
		}
	}
	if got := floored.Share(); got != makeRoomFloor {
		t.Fatalf("floored partition moved to %g", got)
	}
	acquire(t, sc, "new", 1, share)
	checkLedger(t, sc, "after acquire")

	// Keep admitting until the floor refuses; the ledger holds at every
	// step and nobody is pushed below the floor.
	n := 0
	for ; n < 1000; n++ {
		share, err := sc.MakeRoom(makeRoomFloor)
		if err != nil {
			break
		}
		acquire(t, sc, fmt.Sprintf("fill%03d", n), 1, share)
		checkLedger(t, sc, "fill")
	}
	if n == 0 || n == 1000 {
		t.Fatalf("admitted %d newcomers before the floor refused", n)
	}
	for i, s := range shares(sc) {
		if s < makeRoomFloor-1e-12 {
			t.Fatalf("partition %d at %g, below the floor", i, s)
		}
	}
	sc.mu.Lock()
	names := make([]string, 0, len(sc.order))
	for _, pt := range sc.order {
		names = append(names, pt.Name())
	}
	sc.mu.Unlock()
	for _, name := range names {
		sc.Release(name)
	}
	if f := sc.LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after releasing everything", f)
	}
	if parts, used := sc.Usage(); parts != 0 || math.Abs(used) > 1e-9 {
		t.Fatalf("after release: %d parts, %g used", parts, used)
	}
}
