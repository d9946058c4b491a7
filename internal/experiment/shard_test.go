package experiment

import (
	"reflect"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
)

// shardTestSpec is a districted deployment (124+8 = 132 radios)
// affordable in the unit suite.
const shardTestSpec = "metro-districts,bs=124,vehicles=8"

// stripShardExec clears the one field that legitimately differs between
// shard counts: per-shard wall-clock bookkeeping.
func stripShardExec(r *FleetAppRun) *FleetAppRun {
	c := *r
	c.ShardExec = nil
	return &c
}

// TestShardedMatchesSerial is the district mode's acceptance contract: a
// districted scenario run as K independent kernels produces a FleetAppRun
// deeply equal to the serial run — every per-vehicle metric, channel
// counter, occupancy figure and link slot. Every row also has to finish:
// a backplane send that left its district would panic (DESIGN §10). The
// mixed fleet puts TCP, Web and VoIP servers behind the per-district
// gateways; districts=3 splits 125 basestations and 8 vehicles unevenly,
// and K=2 over it groups two districts on one kernel.
func TestShardedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		spec, faults string
		ks           []int
	}{
		{shardTestSpec, "", []int{2, 4}},
		{shardTestSpec, chaosFaults, []int{2, 4}},
		{shardTestSpec + ",app=mixed", "", []int{2, 4}},
		{"metro-districts,districts=3,bs=125,vehicles=8", chaosFaults, []int{2, 3}},
	} {
		spec, err := scenario.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Faults = tc.faults
		dur := 12 * time.Second
		serial, err := RunFleetAppWorkload(11, spec, core.DefaultConfig(), dur, 1)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Transmissions == 0 || len(serial.PerVehicle) == 0 {
			t.Fatalf("%s faults=%q: serial run saw no traffic — identity would be vacuous", tc.spec, tc.faults)
		}
		for _, k := range tc.ks {
			sharded, err := RunFleetAppWorkload(11, spec, core.DefaultConfig(), dur, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(sharded.ShardExec) != k {
				t.Fatalf("%s faults=%q shards=%d: ran %d shards", tc.spec, tc.faults, k, len(sharded.ShardExec))
			}
			if !reflect.DeepEqual(stripShardExec(serial), stripShardExec(sharded)) {
				t.Errorf("%s faults=%q shards=%d: sharded run diverged from serial:\nserial  %+v\nsharded %+v",
					tc.spec, tc.faults, k, serial, sharded)
			}
		}
	}
}

// haloTestSpec is an un-districted deployment (180+8 = 188 radios)
// affordable in the unit suite. grid-metro has no districts, so the
// planner must choose the halo-band stripe lanes, not coupled kernels.
const haloTestSpec = "grid-metro,bs=180,vehicles=8"

// TestShardedHaloMatchesSerial is the PR 10 tentpole acceptance
// contract: an un-districted scenario run with the delivery fan-out
// halo-sharded across 2, 4 and 8 stripe lanes produces a FleetAppRun
// deeply equal to the serial run — every per-vehicle metric, channel
// counter, occupancy figure and link slot, with and without the
// multi-layer chaos fault mix.
func TestShardedHaloMatchesSerial(t *testing.T) {
	for _, faults := range []string{"", chaosFaults} {
		spec, err := scenario.Parse(haloTestSpec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Faults = faults
		dur := 10 * time.Second
		serial, err := RunFleetAppWorkload(11, spec, core.DefaultConfig(), dur, 1)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Transmissions == 0 || len(serial.PerVehicle) == 0 {
			t.Fatalf("faults=%q: serial run saw no traffic — identity would be vacuous", faults)
		}
		if serial.ShardExec != nil {
			t.Fatal("serial run grew shard bookkeeping")
		}
		for _, k := range []int{2, 4, 8} {
			sharded, err := RunFleetAppWorkload(11, spec, core.DefaultConfig(), dur, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(sharded.ShardExec) != k {
				t.Fatalf("faults=%q lanes=%d: ran %d lanes", faults, k, len(sharded.ShardExec))
			}
			var halo int
			for _, s := range sharded.ShardExec {
				halo += s.HaloRecv
			}
			if halo == 0 {
				t.Errorf("faults=%q lanes=%d: no halo-band traffic — stripes never shared a radio edge, the partition is untested", faults, k)
			}
			if !reflect.DeepEqual(stripShardExec(serial), stripShardExec(sharded)) {
				t.Errorf("faults=%q lanes=%d: halo-sharded run diverged from serial:\nserial  %+v\nsharded %+v",
					faults, k, serial, sharded)
			}
		}
	}
	// The executed halo runs must have logged halo-marked entries.
	entries := TakeShardLog()
	haloLogged := false
	for _, e := range entries {
		if e.Halo && len(e.Stats) > 0 {
			haloLogged = true
		}
	}
	if !haloLogged {
		t.Error("no halo-marked shard-log entry recorded")
	}
}

// TestShardedHaloRecordingSharedSeries pins the metrics half of the
// identity bar: the halo run's recording carries the serial schema's
// series with byte-identical data — the per-lane shard.* balance series
// and the shards meta key are strict additions.
func TestShardedHaloRecordingSharedSeries(t *testing.T) {
	spec, err := scenario.Parse(haloTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	dur := 8 * time.Second
	TakeRecordings() // drain anything earlier tests left behind
	if _, err := runFleetApp(5, spec, core.DefaultConfig(), dur, 1, time.Second, runHooks{}); err != nil {
		t.Fatal(err)
	}
	serialRecs := TakeRecordings()
	if _, err := runFleetApp(5, spec, core.DefaultConfig(), dur, 4, time.Second, runHooks{}); err != nil {
		t.Fatal(err)
	}
	haloRecs := TakeRecordings()
	if len(serialRecs) != 1 || len(haloRecs) != 1 {
		t.Fatalf("expected one recording per run, got %d and %d", len(serialRecs), len(haloRecs))
	}
	serial, halo := serialRecs[0], haloRecs[0]
	if serial.Rows() == 0 || serial.Rows() != halo.Rows() {
		t.Fatalf("row counts: serial %d, halo %d", serial.Rows(), halo.Rows())
	}
	for _, def := range serial.Series {
		if !reflect.DeepEqual(serial.Column(def.Name), halo.Column(def.Name)) {
			t.Errorf("series %s diverged between serial and halo recordings", def.Name)
		}
	}
	if halo.SeriesIndex("shard.0.events") < 0 || halo.SeriesIndex("shard.3.halo_recv") < 0 {
		t.Fatal("halo recording lacks the per-lane shard.* balance series")
	}
	if serial.SeriesIndex("shard.0.events") >= 0 {
		t.Error("serial recording grew shard.* series")
	}
	col := halo.Column("shard.0.halo_recv")
	if col[len(col)-1] == 0 {
		t.Error("lane 0 recorded no halo traffic over the whole run")
	}
	if halo.Meta["shards"] != "4" {
		t.Errorf("halo recording meta shards=%q, want 4", halo.Meta["shards"])
	}
}

// TestShardedSmallCityTakesLanes: a city has no population below which it
// must run serially. A 64-radio spec requested at -shards 4 runs four halo
// lanes, logs them and matches the serial run exactly.
func TestShardedSmallCityTakesLanes(t *testing.T) {
	spec, err := scenario.Parse("grid-metro,bs=60,vehicles=4")
	if err != nil {
		t.Fatal(err)
	}
	dur := 8 * time.Second
	serial, err := RunFleetAppWorkload(7, spec, core.DefaultConfig(), dur, 1)
	if err != nil {
		t.Fatal(err)
	}
	TakeShardLog() // drain earlier tests' entries
	sharded, err := RunFleetAppWorkload(7, spec, core.DefaultConfig(), dur, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.ShardExec) != 4 {
		t.Fatalf("64-radio spec ran %d lanes, want 4", len(sharded.ShardExec))
	}
	if !reflect.DeepEqual(stripShardExec(serial), stripShardExec(sharded)) {
		t.Error("halo-sharded small city diverged from serial")
	}
	if log := TakeShardLog(); len(log) != 1 || !log[0].Halo || len(log[0].Stats) != 4 {
		t.Errorf("small city logged %+v, want one 4-lane halo entry", log)
	}
}

// TestShardPlanShape pins the partitioner: balanced contiguous district
// groups for districted specs (clamped to the district count), halo
// stripe lanes for un-districted specs at any population, and serial
// below two shards.
func TestShardPlanShape(t *testing.T) {
	spec, _ := scenario.Parse(shardTestSpec)
	p := shardPlan(spec, 2)
	if p.mode != shardModeDistricts || p.eff != 2 || !reflect.DeepEqual(p.districtShard, []int{0, 0, 1, 1}) {
		t.Errorf("K=2: plan %+v", p)
	}
	p = shardPlan(spec, 8)
	if p.mode != shardModeDistricts || p.eff != 4 || !reflect.DeepEqual(p.districtShard, []int{0, 1, 2, 3}) {
		t.Errorf("K=8 clamps to districts: plan %+v", p)
	}
	flat, _ := scenario.Parse("grid-metro")
	if p = shardPlan(flat, 4); p.mode != shardModeHalo || p.eff != 4 || p.districtShard != nil {
		t.Errorf("un-districted spec: plan %+v, want 4 halo lanes", p)
	}
	small := flat
	small.BS, small.Vehicles = 60, 4 // a 64-radio city stripes like a metro
	if p = shardPlan(small, 4); p.mode != shardModeHalo || p.eff != 4 {
		t.Errorf("64-radio spec: plan %+v, want 4 halo lanes", p)
	}
	// The lane count is outside input (-shards, a served spec): a runaway
	// request clamps to the channel's ceiling instead of starting that
	// many worker goroutines.
	if p = shardPlan(flat, 100000); p.mode != shardModeHalo || p.eff != radio.MaxShardLanes {
		t.Errorf("runaway halo request: plan %+v, want %d lanes", p, radio.MaxShardLanes)
	}
	if p = shardPlan(flat, 1); p.mode != shardModeSerial || p.eff != 1 {
		t.Errorf("unrequested sharding: plan %+v, want serial", p)
	}
}
