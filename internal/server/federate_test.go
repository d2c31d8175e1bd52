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
