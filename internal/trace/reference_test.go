package trace

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// The generators flip their coins through FadingLink.Receives and ask the
// route for the vehicle's position once per beacon. This file keeps the
// loops as they stood before — the position asked once per basestation per
// beacon, every coin compared with a computed ReceiveProb — and holds the
// generators to their output, value for value.

func eagerDieselNet(seed int64, channel int, duration time.Duration) [][]float64 {
	dn := mobility.NewDieselNet(channel)
	k := sim.NewKernel(seed)
	p := radio.DefaultParams()
	links := make([]*radio.FadingLink, len(dn.BSes))
	coins := make([]*sim.RNG, len(dn.BSes))
	for i := range links {
		links[i] = radio.NewFadingLink(p, k.RNG("dieselnet", fmt.Sprint(channel), fmt.Sprint(i)))
		coins[i] = k.RNG("dieselnet-coin", fmt.Sprint(channel), fmt.Sprint(i))
	}
	secs := int(duration / time.Second)
	ratio := make([][]float64, secs)
	for s := 0; s < secs; s++ {
		row := make([]float64, len(dn.BSes))
		for b, bs := range dn.BSes {
			heard := 0
			for j := 0; j < BeaconsPerSecond; j++ {
				at := time.Duration(s)*time.Second + time.Duration(j)*100*time.Millisecond
				d := dn.Route.Position(at).Dist(bs)
				if coins[b].Float64() < links[b].ReceiveProb(at, d) {
					heard++
				}
			}
			row[b] = float64(heard) / BeaconsPerSecond
		}
		ratio[s] = row
	}
	return ratio
}

// TestDieselNetMatchesEagerLoop: the generator's trace is the eager loop's,
// at ten minutes on three seeds, and at the production size — one hour at
// seed 3000 on both channels — with one worker and with four, which splits
// every channel's columns into blocks synthesized side by side.
func TestDieselNetMatchesEagerLoop(t *testing.T) {
	check := func(seed int64, channel int, dur time.Duration) {
		t.Helper()
		got := GenerateDieselNet(seed, channel, dur)
		want := eagerDieselNet(seed, channel, dur)
		if !reflect.DeepEqual(got.Ratio, want) {
			t.Errorf("seed %d channel %d %v at GOMAXPROCS %d: Ratio differs from the eager loop's", seed, channel, dur, runtime.GOMAXPROCS(0))
		}
		heard := 0
		for _, row := range want {
			for _, r := range row {
				if r > 0 {
					heard++
				}
			}
		}
		if heard == 0 {
			t.Errorf("seed %d channel %d: the reference heard nothing", seed, channel)
		}
	}
	for _, seed := range []int64{1, 7, 3000} {
		for _, channel := range []int{1, 6} {
			check(seed, channel, 10*time.Minute)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, channel := range []int{1, 6} {
			check(3000, channel, time.Hour)
		}
	}
}

// eagerVanLAN is GenerateVanLANProbes flattened: Down and Up as they were
// decided and RSSI by bits, with probes every 100 ms through the default
// channel model.
func eagerVanLAN(seed int64, trips int) (down, up []bool, rssi []uint64) {
	const slot = 100 * time.Millisecond
	params := radio.DefaultParams()
	v := mobility.NewVanLAN()
	k := sim.NewKernel(seed)
	nb := len(v.BSes)
	type dir struct {
		link *radio.FadingLink
		coin *sim.RNG
	}
	downDir, upDir := make([]dir, nb), make([]dir, nb)
	rssiRNG := make([]*sim.RNG, nb)
	for b := 0; b < nb; b++ {
		downDir[b] = dir{radio.NewFadingLink(params, k.RNG("vanlan", "down", fmt.Sprint(b))), k.RNG("vanlan", "down-coin", fmt.Sprint(b))}
		upDir[b] = dir{radio.NewFadingLink(params, k.RNG("vanlan", "up", fmt.Sprint(b))), k.RNG("vanlan", "up-coin", fmt.Sprint(b))}
		rssiRNG[b] = k.RNG("vanlan", "rssi", fmt.Sprint(b))
	}
	slots := int(v.Route.LapTime()/slot) * trips
	for s := 0; s < slots; s++ {
		at := time.Duration(s) * slot
		pos := v.Route.Position(at)
		for b := 0; b < nb; b++ {
			dist := pos.Dist(v.BSes[b])
			dOK := downDir[b].coin.Float64() < downDir[b].link.ReceiveProb(at, dist)
			uOK := upDir[b].coin.Float64() < upDir[b].link.ReceiveProb(at, dist)
			r := math.NaN()
			if dOK {
				r = radio.RSSIBase(dist) + rssiRNG[b].NormFloat64()*radio.RSSINoiseDB
			}
			down, up, rssi = append(down, dOK), append(up, uOK), append(rssi, math.Float64bits(r))
		}
	}
	return down, up, rssi
}

func TestVanLANProbesMatchEagerLoop(t *testing.T) {
	for _, seed := range []int64{1, 7, 3000} {
		pt := GenerateVanLANProbes(seed, 2)
		var down, up []bool
		var rssi []uint64
		for s := 0; s < pt.Slots; s++ {
			down, up = append(down, pt.Down[s]...), append(up, pt.Up[s]...)
			for _, r := range pt.RSSI[s] {
				rssi = append(rssi, math.Float64bits(r))
			}
		}
		wantDown, wantUp, wantRSSI := eagerVanLAN(seed, 2)
		if !reflect.DeepEqual(down, wantDown) || !reflect.DeepEqual(up, wantUp) {
			t.Errorf("seed %d: Down/Up differ from the eager loop's", seed)
		}
		if !reflect.DeepEqual(rssi, wantRSSI) {
			t.Errorf("seed %d: RSSI differs from the eager loop's (compared by bits, NaNs included)", seed)
		}
	}
}
