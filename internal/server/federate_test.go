package server

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// A migration whose target die has no room rolls back: the error comes
// back, and the app stays attached to its source die — partition on the
// source ledger, slot in the source die's manager, decided on the next
// tick — with no ledger fault on either die. Once the target has room
// the same move goes through and the app's attachment follows it.
func TestMigrationRollsBackWhenTargetIsFull(t *testing.T) {
	d, err := NewDaemon(Config{
		Cores: 16, Accel: 0.5, Period: time.Hour,
		Chip: &ChipConfig{Chips: 2, Tiles: 4, MigrateSlowdown: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	enroll := func(name string, chip int) {
		t.Helper()
		if err := d.Enroll(EnrollRequest{Name: name, Chip: &chip, MinRate: 10, MaxRate: 30}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		enroll(fmt.Sprintf("full-%d", i), 1) // one dedicated core each: die 1 is full
	}
	enroll("mover", 0)
	for i := 0; i < 3; i++ {
		d.Tick()
	}

	// attachedTo checks that mover is attached to die chip alone and
	// that the dies hold parts partitions.
	attachedTo := func(chip int, parts ...int) {
		t.Helper()
		a, ok := d.dir.get("mover")
		if !ok {
			t.Fatal("mover left the directory")
		}
		if a.chip != chip || a.partition() == nil {
			t.Fatalf("mover on chip %d (partition %v), want chip %d", a.chip, a.partition() != nil, chip)
		}
		for i, m := range d.mgrs {
			if _, ok := m.AppID("mover"); ok != (i == chip) {
				t.Fatalf("mover registered with die %d's manager: %v, want %v", i, ok, i == chip)
			}
		}
		for i, cs := range d.ChipStatuses() {
			if cs.Partitions != parts[i] {
				t.Fatalf("die %d holds %d partitions, want %d", i, cs.Partitions, parts[i])
			}
		}
	}

	err = d.applyMigration("mover", 1, d.clock.Now())
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("migration onto a full die: err = %v, want ErrPoolExhausted", err)
	}
	attachedTo(0, 1, 4)
	if d.Migrations() != 0 {
		t.Fatalf("failed migration counted: %d", d.Migrations())
	}
	d.Tick()
	st, err := d.Status("mover")
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision == nil || st.Decision.Time != d.clock.Now() || st.DecisionErr != "" {
		t.Fatalf("mover not decided on the tick after the rollback: %+v (err %q)", st.Decision, st.DecisionErr)
	}
	for i, cs := range d.ChipStatuses() {
		if cs.LedgerFaults != 0 {
			t.Fatalf("die %d: %d ledger faults after the rollback", i, cs.LedgerFaults)
		}
	}

	// Free a slot on die 1: the same move now lands.
	if err := d.Withdraw("full-0"); err != nil {
		t.Fatal(err)
	}
	if err := d.applyMigration("mover", 1, d.clock.Now()); err != nil {
		t.Fatal(err)
	}
	attachedTo(1, 0, 4)
	if d.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", d.Migrations())
	}
}

// On the oversubscribed 10k-app, four-die fleet (1,024 tiles each, a
// 4,096-core pool), enrollment spreads tenants evenly and the broker
// never grants a die more than its tiles: partitions per die sit within
// 1% of even after the fill; on every tick each die's manager budget
// and ledger usage stay within its tiles, no ledger faults appear, and
// no die refuses a grant — through two withdraw/re-enroll pairs per
// tick and a die saturated mid-run.
func TestFederatedFleetStaysWithinTiles(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-app fleet")
	}
	const apps, chips, tiles, ticks = 10000, 4, 1024, 8
	d, err := NewDaemon(Config{
		Cores: chips * tiles, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		Chip: &ChipConfig{Chips: chips, Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	wls := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	enroll := func(i int) {
		t.Helper()
		if err := d.Enroll(EnrollRequest{
			Name: fmt.Sprintf("app-%05d", i), Workload: wls[i%len(wls)],
			Window: 256, MinRate: 20, MaxRate: 30,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < apps; i++ {
		enroll(i)
	}
	for _, cs := range d.ChipStatuses() {
		if even := apps / chips; cs.Partitions < even*99/100 || cs.Partitions > even*101/100 {
			t.Fatalf("die %d holds %d partitions after the fill, want %d ± 1%%", cs.Chip, cs.Partitions, even)
		}
	}
	for k := 0; k < ticks; k++ {
		if k == ticks/2 {
			if err := d.SaturateChip(k%chips, 0.35); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 2; j++ {
			i := (k*2 + j) * 97 % apps
			if err := d.Withdraw(fmt.Sprintf("app-%05d", i)); err != nil {
				t.Fatal(err)
			}
			enroll(i)
		}
		d.Tick()
		for _, cs := range d.ChipStatuses() {
			if b := d.mgrs[cs.Chip].Budget(); b > cs.Tiles {
				t.Fatalf("tick %d: die %d granted %d units on %d tiles", k, cs.Chip, b, cs.Tiles)
			}
			if _, used := d.fleet.Chip(cs.Chip).Usage(); used > float64(cs.Tiles)+1e-6 {
				t.Fatalf("tick %d: die %d uses %g core-equivalents of %d tiles", k, cs.Chip, used, cs.Tiles)
			}
			if cs.LedgerFaults != 0 {
				t.Fatalf("tick %d: die %d has %d ledger faults", k, cs.Chip, cs.LedgerFaults)
			}
			if cs.ShareRefusals != 0 {
				t.Fatalf("tick %d: die %d refused %d grants", k, cs.Chip, cs.ShareRefusals)
			}
		}
	}
}
