package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"angstrom/internal/core"
)

// Directory unit coverage: the copy-on-write read path must agree with
// the writers and keep map and list views consistent.
func TestDirectoryBasics(t *testing.T) {
	d := newDirectory(5) // rounds up to 8
	if got := len(d.shards); got != 8 {
		t.Fatalf("shard count %d, want 8 (rounded up)", got)
	}
	names := []string{"a", "b", "c", "dd", "ee", "ff", "g-0", "g-1"}
	for _, n := range names {
		if !d.insert(n, &app{name: n}) {
			t.Fatalf("insert %q failed", n)
		}
	}
	if !d.insert("dup", &app{name: "dup"}) || d.insert("dup", &app{name: "dup"}) {
		t.Fatal("duplicate insert not refused")
	}
	if d.len() != len(names)+1 {
		t.Fatalf("len %d, want %d", d.len(), len(names)+1)
	}
	for _, n := range names {
		a, ok := d.get(n)
		if !ok || a.name != n {
			t.Fatalf("get %q = %v, %v", n, a, ok)
		}
	}
	snap := d.snapshot(nil)
	if len(snap) != len(names)+1 {
		t.Fatalf("snapshot %d entries, want %d", len(snap), len(names)+1)
	}
	if a, ok := d.remove("dd"); !ok || a.name != "dd" {
		t.Fatal("remove dd failed")
	}
	if _, ok := d.remove("dd"); ok {
		t.Fatal("double remove succeeded")
	}
	if _, ok := d.get("dd"); ok {
		t.Fatal("removed name still resolves")
	}
	if d.len() != len(names) {
		t.Fatalf("len %d after remove, want %d", d.len(), len(names))
	}
	// Shard assignment is a fixed hash: two directories agree.
	d2 := newDirectory(8)
	for _, n := range names {
		if d.shardFor(n) != &d.shards[0] && d2.shardFor(n) == &d2.shards[0] {
			t.Fatalf("shard assignment for %q differs between directories", n)
		}
	}
}

// Satellite: the sharded-directory churn test. Concurrent
// enroll/withdraw/beat/goal traffic against a fast-ticking chip-backed
// daemon, run under -race (make test does). At every quiesce point the
// tile ledger must account exactly for the survivors — never
// overcommitted, never faulted.
func TestShardedDirectoryChurnRace(t *testing.T) {
	const tiles = 16
	d, err := NewDaemon(Config{
		Cores: tiles, Period: time.Millisecond, Oversubscribe: true,
		Shards: 8, TickWorkers: 4,
		Chip: &ChipConfig{Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()

	const workers = 8
	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chipName := fmt.Sprintf("churn-%d", w)
			advName := fmt.Sprintf("adv-%d", w)
			for r := 0; r < rounds; r++ {
				// Chip app: enroll, let it execute a few periods, withdraw.
				if err := d.Enroll(EnrollRequest{Name: chipName, Workload: "water", MinRate: 2}); err != nil {
					t.Error(err)
					return
				}
				// Advisory app beats through the lock-free path meanwhile.
				if err := d.Enroll(EnrollRequest{Name: advName, Mode: ModeAdvisory, MinRate: 10, MaxRate: 30}); err != nil {
					t.Error(err)
					return
				}
				for b := 0; b < 20; b++ {
					if err := d.Beat(advName, 3, 0); err != nil {
						t.Error(err)
						return
					}
					if b == 10 {
						if err := d.SetGoal(advName, 12, 35); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if r%3 == 0 {
					time.Sleep(time.Millisecond) // let ticks interleave the fleet
				}
				if err := d.Withdraw(chipName); err != nil {
					t.Error(err)
					return
				}
				if err := d.Withdraw(advName); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stopReaders := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
					d.List()
					d.Stats()
					if st := d.ChipStatuses()[0]; st.CoreEquivalents > float64(tiles)+1e-6 {
						t.Errorf("ledger overcommitted mid-churn: %g > %d", st.CoreEquivalents, tiles)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	rwg.Wait()
	d.Stop()

	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after churn", f)
	}
	parts, used := d.fleet.Chip(0).Usage()
	if parts != 0 || used > 1e-6 {
		t.Fatalf("ledger not empty after full churn: %d partitions, %g core-equivalents", parts, used)
	}
	if apps := d.Stats().Apps; apps != 0 {
		t.Fatalf("%d apps still enrolled after full churn", apps)
	}
}

// Property-style coverage for chip admission through the public surface:
// deterministic enroll/withdraw churn on a deeply oversubscribed chip.
// After every operation the ledger stays within the tile pool, no
// partition sits below the admission floor, and accounting matches the
// survivors exactly.
func TestMakeRoomChurnInvariants(t *testing.T) {
	const tiles = 2
	d, err := NewDaemon(Config{
		Cores: tiles, Accel: 0.2, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 2,
		Chip: &ChipConfig{Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string) {
		t.Helper()
		if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
			t.Fatalf("%s: %d ledger faults", op, f)
		}
		_, used := d.fleet.Chip(0).Usage()
		if used > tiles+1e-6 {
			t.Fatalf("%s: ledger %g exceeds %d tiles", op, used, tiles)
		}
		sum := 0.0
		for _, a := range d.dir.snapshot(nil) {
			if a.partition() == nil {
				continue
			}
			share := a.partition().Share()
			if share < core.MinTimeShare-1e-9 {
				t.Fatalf("%s: %s share %g below floor %g", op, a.name, share, core.MinTimeShare)
			}
			sum += float64(a.partition().Config().Cores) * share
		}
		if diff := used - sum; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: ledger %g != survivors %g", op, used, sum)
		}
	}
	live := 0
	name := func(i int) string { return fmt.Sprintf("mk-%03d", i) }
	for i := 0; i < 120; i++ {
		op := fmt.Sprintf("enroll %d", i)
		if err := d.Enroll(EnrollRequest{Name: name(i), Workload: "barnes", MinRate: 1}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		live++
		check(op)
		if i%3 == 2 {
			victim := name(i - 2)
			if err := d.Withdraw(victim); err != nil {
				t.Fatalf("withdraw %s: %v", victim, err)
			}
			live--
			check("withdraw " + victim)
		}
		if i%10 == 9 {
			d.Tick()
			check(fmt.Sprintf("tick after %d", i))
		}
	}
	if got := d.Stats().Apps; got != live {
		t.Fatalf("%d apps enrolled, want %d", got, live)
	}
	// Oversubscription has a floor: beyond 1/core.MinTimeShare apps per tile
	// admission must refuse cleanly, not overcommit.
	for i := 1000; i < 1000+int(float64(tiles)/core.MinTimeShare); i++ {
		if err := d.Enroll(EnrollRequest{Name: name(i), Workload: "barnes", MinRate: 1}); err != nil {
			break
		}
		check(fmt.Sprintf("deep enroll %d", i))
	}
}

// Chip admission is a function of the die's own history, not of the
// directory's shard layout: oversubscribed enrollment carves each slot
// by shrinking incumbents in acquisition order, so the same enrollment
// sequence leaves bit-identical partition shares under one shard or
// many.
func TestOversubscribedEnrollLayoutIndependent(t *testing.T) {
	const tiles, apps = 16, 40
	shares := func(shards, workers int) map[string]float64 {
		d, err := NewDaemon(Config{
			Cores: tiles, Accel: 1, Period: time.Hour, Oversubscribe: true,
			Shards: shards, TickWorkers: workers,
			Chip: &ChipConfig{Tiles: tiles},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < apps; i++ {
			if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("app-%d", i), Workload: "barnes", MinRate: 1}); err != nil {
				t.Fatalf("enroll %d: %v", i, err)
			}
		}
		out := make(map[string]float64, apps)
		for _, a := range d.dir.snapshot(nil) {
			out[a.name] = a.partition().Share()
		}
		return out
	}
	one, many := shares(1, 1), shares(64, 0)
	if len(one) != apps || len(many) != apps {
		t.Fatalf("enrolled %d and %d apps, want %d", len(one), len(many), apps)
	}
	for name, s := range one {
		if many[name] != s {
			t.Errorf("%s: share %v under 1 shard, %v under 64", name, s, many[name])
		}
	}
}
