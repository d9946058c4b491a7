package core

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestConfigByName(t *testing.T) {
	for name, want := range map[string]Config{
		"vifi":           DefaultConfig(),
		"brr":            BRRConfig(),
		"diversity-only": DiversityOnlyConfig(),
	} {
		if got, err := ConfigByName(name); err != nil || got != want {
			t.Errorf("ConfigByName(%q) = %+v, %v", name, got, err)
		}
	}
	_, err := ConfigByName("ViFi")
	if err == nil || !strings.Contains(err.Error(), "vifi, brr, diversity-only") {
		t.Errorf("unknown name: err = %v, want the valid names listed", err)
	}
}

// TestBeaconPeriodHasOneOwner: Config.BeaconInterval is the period every
// MAC of the cell beacons at, not only the divisor of the expected beacon
// count. At 200 ms each node sends five beacons a second, and a pair
// joined by a FixedLink(0.5) estimates its link near 0.5; were the MACs
// beaconing on a period of their own, the ratio would be off by their
// quotient (at 100 ms it clamps at 1).
func TestBeaconPeriodHasOneOwner(t *testing.T) {
	const (
		warm = 3 * time.Second
		span = 60 * time.Second
	)
	cfg := DefaultConfig()
	cfg.BeaconInterval = 200 * time.Millisecond
	k, cell := testCell(t, 7, cfg, uniformMatrix(2, 0.5), nil)
	bs, veh := cell.BSes[0], cell.Vehicle

	k.RunUntil(warm)
	sent := map[*Node]int{bs: bs.MAC().Stats().BeaconsSent, veh: veh.MAC().Stats().BeaconsSent}
	var down, up float64
	for s := time.Duration(1); s <= span/time.Second; s++ {
		now := warm + s*time.Second
		k.RunUntil(now)
		down += veh.Probs().Get(bs.Addr(), veh.Addr(), now)
		up += bs.Probs().Get(veh.Addr(), bs.Addr(), now)
	}
	samples := float64(span / time.Second)
	for n, before := range sent {
		if got, want := n.MAC().Stats().BeaconsSent-before, int(span/cfg.BeaconInterval); got < want-1 || got > want+1 {
			t.Errorf("node %d sent %d beacons in %v, want %d (one per %v)", n.Addr(), got, span, want, cfg.BeaconInterval)
		}
	}
	for name, sum := range map[string]float64{"bs→veh": down, "veh→bs": up} {
		if mean := sum / samples; math.Abs(mean-0.5) > 0.1 {
			t.Errorf("%s estimate averages %.3f over %v, want ≈0.5 (the link's reception probability)", name, mean, span)
		}
	}
}
