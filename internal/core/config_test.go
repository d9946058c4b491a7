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

// TestConfigValidate: a configuration the stack cannot run is an error,
// and the edges of each range still run. At a RetxPercentile outside
// [0, 1] the retransmission timer indexes past its delay window; at a
// BeaconInterval of 0 every window expects +Inf beacons and every
// estimate reads 0, and below 0 the MACs beacon without end at one
// instant; a MaxRetx past 255 overflows the uint8 attempt counter, so a
// packet that is never acked is never given up. The rest run without
// error but mislead: a ProbStale ≤ 0 ages every estimate out at once, a
// ProbAlpha outside (0, 1] (NaN included) folds nothing sane, an unknown
// Coordinator never relays while the run is labelled ViFi, and a
// negative SalvageWindow salvages nothing.
func TestConfigValidate(t *testing.T) {
	edit := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	for name, c := range map[string]Config{
		"vifi":               DefaultConfig(),
		"brr":                BRRConfig(),
		"MaxRetx 0":          edit(func(c *Config) { c.MaxRetx = 0 }),
		"MaxRetx 255":        edit(func(c *Config) { c.MaxRetx = 255 }),
		"RetxPercentile 0":   edit(func(c *Config) { c.RetxPercentile = 0 }),
		"RetxPercentile 1":   edit(func(c *Config) { c.RetxPercentile = 1 }),
		"BeaconInterval 1ns": edit(func(c *Config) { c.BeaconInterval = 1 }),
		"diversity-only":     DiversityOnlyConfig(),
		"ProbStale 1ns":      edit(func(c *Config) { c.ProbStale = 1 }),
		"ProbAlpha 1":        edit(func(c *Config) { c.ProbAlpha = 1 }),
		"ProbAlpha 1e-9":     edit(func(c *Config) { c.ProbAlpha = 1e-9 }),
		"CoordNotG3":         edit(func(c *Config) { c.Coordinator = CoordNotG3 }),
		"SalvageWindow 0":    edit(func(c *Config) { c.SalvageWindow = 0 }),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, c := range map[string]Config{
		"MaxRetx -1":            edit(func(c *Config) { c.MaxRetx = -1 }),
		"MaxRetx 256":           edit(func(c *Config) { c.MaxRetx = 256 }),
		"MaxRetx 300":           edit(func(c *Config) { c.MaxRetx = 300 }),
		"RetxPercentile -0.01":  edit(func(c *Config) { c.RetxPercentile = -0.01 }),
		"RetxPercentile 1.5":    edit(func(c *Config) { c.RetxPercentile = 1.5 }),
		"RetxPercentile NaN":    edit(func(c *Config) { c.RetxPercentile = math.NaN() }),
		"BeaconInterval 0":      edit(func(c *Config) { c.BeaconInterval = 0 }),
		"BeaconInterval -100ms": edit(func(c *Config) { c.BeaconInterval = -100 * time.Millisecond }),
		"ProbStale 0":           edit(func(c *Config) { c.ProbStale = 0 }),
		"ProbStale -1s":         edit(func(c *Config) { c.ProbStale = -time.Second }),
		"ProbAlpha 0":           edit(func(c *Config) { c.ProbAlpha = 0 }),
		"ProbAlpha 2":           edit(func(c *Config) { c.ProbAlpha = 2 }),
		"ProbAlpha -0.5":        edit(func(c *Config) { c.ProbAlpha = -0.5 }),
		"ProbAlpha NaN":         edit(func(c *Config) { c.ProbAlpha = math.NaN() }),
		"Coordinator -1":        edit(func(c *Config) { c.Coordinator = -1 }),
		"Coordinator 99":        edit(func(c *Config) { c.Coordinator = 99 }),
		"SalvageWindow -1s":     edit(func(c *Config) { c.SalvageWindow = -time.Second }),
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
