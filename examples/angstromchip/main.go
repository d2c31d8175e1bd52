// Angstromchip: SEEC driving the Angstrom chip model's exposed hardware
// knobs (§4.2) — core allocation, L2 capacity, DVFS — for the barnes
// benchmark, with the chip's fine-grained sensors (§4.1) and a partner
// core (§4.3) doing the decision work. barnes runs as the one partition
// of a 256-tile SharedChip at full share, the same engine and knob
// space the serving daemon binds every chip-backed application to.
//
// An event probe watches the L2 miss counter and queues records for the
// partner core, which also runs (and is charged for) the decision code.
//
// Run: go run ./examples/angstromchip
package main

import (
	"fmt"
	"log"
	"math"

	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

func main() {
	log.SetFlags(0)
	p := angstrom.DefaultParams()
	clock := sim.NewClock(0)
	spec, err := workload.ByName("barnes")
	if err != nil {
		log.Fatal(err)
	}
	base := angstrom.Config{Cores: 16, CacheKB: 64, VF: 0}
	chip, err := angstrom.NewSharedChip(p, 256)
	if err != nil {
		log.Fatal(err)
	}
	tiles, err := angstrom.NewTiles(p, base, chip.Tiles())
	if err != nil {
		log.Fatal(err)
	}
	mon := heartbeat.New(clock, heartbeat.WithWindow(41))
	part, err := chip.Acquire("barnes", workload.NewInstance(spec, 3), mon, base, 1, clock.Now())
	if err != nil {
		log.Fatal(err)
	}

	// Probe: record whenever tile 0 crosses each 10M L2 misses.
	probe := &angstrom.Probe{
		Counter: angstrom.CtrL2Misses,
		Op:      angstrom.OpGE,
		Trigger: 10_000_000,
		Queue:   tiles[0].Queue,
	}
	if err = tiles[0].Probes.Attach(probe); err != nil {
		log.Fatal(err)
	}

	// Pose the paper's "half of maximum" goal: sweep every knob setting
	// for the best achievable heart rate.
	coreOpts := []int{1, 4, 16, 64, 256}
	cacheOpts := []int{32, 64, 128}
	maxRate := 0.0
	for _, cores := range coreOpts {
		for _, kb := range cacheOpts {
			for vf := range p.VF {
				cfg := base
				cfg.Cores, cfg.CacheKB, cfg.VF = cores, kb, vf
				m, merr := angstrom.Evaluate(p, spec, cfg)
				if merr != nil {
					log.Fatal(merr)
				}
				maxRate = math.Max(maxRate, m.HeartRate)
			}
		}
	}
	target := maxRate / 2
	mon.SetPerformanceGoal(target*0.95, target*1.05)
	fmt.Printf("barnes on the Angstrom model: target %.0f beats/s\n", target)

	cores, cache, dvfs, err := part.Knobs(coreOpts, cacheOpts)
	if err != nil {
		log.Fatal(err)
	}
	space, err := angstrom.KnobSpace(p, spec, base, coreOpts, cacheOpts, cores, cache, dvfs)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := core.New("barnes", clock, mon, space, core.Options{
		Pole:    0.4,
		KalmanQ: (0.03 * target) * (0.03 * target),
		KalmanR: (0.02 * target) * (0.02 * target),
	})
	if err != nil {
		log.Fatal(err)
	}

	partner := tiles[0].Partner
	var decisionJ float64
	fmt.Println("  t(s)    rate   power(W)  tile0-temp  cfg (cores/KB/VF)")
	for t := 0; t < 60; t++ {
		d, err := rt.Step()
		if err != nil {
			log.Fatal(err)
		}
		// The decision itself runs on the partner core: ~50k
		// instructions of runtime code per invocation (§4.3).
		cost := partner.RunDecision(50_000)
		decisionJ += cost.Joules

		for _, sl := range d.Slices(1.0) {
			if err := space.Apply(sl.Cfg); err != nil {
				log.Fatal(err)
			}
			// The partition emits beats at their model-exact times; the
			// runtime's clock follows its execution frontier.
			if err := part.Advance(part.Now() + sl.Duration); err != nil {
				log.Fatal(err)
			}
			clock.AdvanceTo(part.Now())
			angstrom.ObserveTiles(tiles, p, spec, part.Config(), part.Metrics(), sl.Duration, clock.Now())
		}
		if t%5 == 0 {
			m := part.Metrics()
			cfg := part.Config()
			fmt.Printf("%6d %7.0f %10.3f %10.1f°C  %d/%d/VF%d\n",
				t, mon.Observe().WindowRate, m.PowerW,
				tiles[0].Thermal.ReadC(), cfg.Cores, cfg.CacheKB, cfg.VF)
		}
	}
	events := partner.DrainEvents(100)
	fmt.Printf("\npartner core: %d probe events drained, %.2f µJ total decision energy\n",
		len(events), decisionJ*1e6)
	onMain := partner.RunDecisionOnMain(50_000 * 60)
	fmt.Printf("same decisions on the main core would have cost %.2f µJ (%.1fx more)\n",
		onMain.Joules*1e6, onMain.Joules/decisionJ)
	fmt.Printf("goal met at the end: %v\n", mon.Check().AllMet())
}
