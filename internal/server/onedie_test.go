package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// oneDieHash pins the one-die chip daemon's observable state after a
// seeded, oversubscribed, power-budgeted run. It was recorded on
// linux/amd64 against the daemon that still special-cased one die (the
// tick skipped the broker pass when only one manager existed, and the
// power rebalance bypassed the broker's watt split), then checked
// unchanged after both went through the fleet path: for one die the
// broker is the identity, so the fleet path must reproduce it bit for
// bit.
const oneDieHash = "cfd8fe1f436e08deb03fe806380b0a03233b94a1eba97da5f90ed9c1ed3d6141"

// TestOneDieCharacterization runs ~50 accelerated ticks on one die with
// more apps than tiles (so the broker pass and the per-die power split
// both have work) and compares the sha256 of the statuses, the die
// ledger, and the tick counters against oneDieHash.
func TestOneDieCharacterization(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which moves the
		// low bits of the float state the hash covers.
		t.Skipf("hash recorded on amd64, running on %s", runtime.GOARCH)
	}
	d, err := NewDaemon(Config{
		Cores: 16, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 2,
		Chip: &ChipConfig{Tiles: 8, PowerBudgetW: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	wls := []string{"barnes", "ocean", "water", "volrend"}
	for i := 0; i < 12; i++ {
		wl := wls[i%len(wls)]
		lo, hi := chipGoal(t, wl, 2, 0.4)
		if err := d.Enroll(EnrollRequest{
			Name: fmt.Sprintf("%s-%02d", wl, i), Workload: wl,
			Window: 512, MinRate: lo, MaxRate: hi,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		d.Tick()
	}
	st := d.Stats()
	blob, err := json.Marshal(struct {
		Apps                    []AppStatus
		Chips                   []ChipStatusResponse
		Ticks, Beats, Decisions uint64
		PowerOvercommitW        float64
	}{d.List(), d.ChipStatuses(), st.Ticks, st.Beats, st.Decisions, st.PowerOvercommitW})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != oneDieHash {
		t.Fatalf("one-die state hash %s, want %s (ticks=%d beats=%d decisions=%d overcommit=%gW)",
			got, oneDieHash, st.Ticks, st.Beats, st.Decisions, st.PowerOvercommitW)
	}
}
