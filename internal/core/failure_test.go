package core

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// These tests inject faults — backplane partitions, anchor flapping,
// beacon starvation, coordinator extremes — and check the protocol
// degrades gracefully instead of wedging or duplicating traffic.

func TestBackplanePartitionDropsButRecovers(t *testing.T) {
	k, cell := testCell(t, 21, DefaultConfig(), uniformMatrix(2, 1), nil)
	delivered := 0
	cell.Gateway.SetVehicleDeliver(cell.Vehicle.Addr(), func(frame.PacketID, []byte, uint16) { delivered++ })
	k.RunUntil(3 * time.Second)

	// Partition the anchor's backplane for two seconds mid-run.
	bs := cell.BSes[0].Addr()
	k.At(4*time.Second, func() { cell.Backplane.SetDown(bs, true) })
	k.At(6*time.Second, func() { cell.Backplane.SetDown(bs, false) })

	const n = 200
	for i := 0; i < n; i++ {
		k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
			cell.Vehicle.SendData(make([]byte, 100))
		})
	}
	k.RunUntil(12 * time.Second)

	// Packets during the partition are lost at the anchor-gateway hop
	// (the air link still acks them), but traffic must resume afterwards.
	if delivered < 100 || delivered > n-40 {
		t.Errorf("delivered %d/%d; want partial loss during the partition", delivered, n)
	}
}

func TestAnchorFlappingNoDuplicates(t *testing.T) {
	// Two equal basestations whose downstream quality alternates every
	// four seconds forces repeated anchor changes; the gateway must never
	// see a packet twice and salvaging must not loop.
	flip := func(first bool) radio.LinkModel {
		per := make([]float64, 60)
		for s := range per {
			hi := (s/4)%2 == 0
			if hi == first {
				per[s] = 0.95
			} else {
				per[s] = 0.25
			}
		}
		return &radio.ScheduleLink{PerSecond: per}
	}
	factory := func(from, to radio.NodeID) radio.LinkModel {
		switch {
		case from == 0 && to == 2, from == 2 && to == 0:
			return flip(true)
		case from == 1 && to == 2, from == 2 && to == 1:
			return flip(false)
		default:
			return radio.FixedLink(0.9)
		}
	}
	k := sim.NewKernel(22)
	opts := DefaultCellOptions()
	opts.LinkFactory = factory
	var anchorChanges int
	opts.Events = func(e Event) {
		if e.Kind == EvAnchorChange {
			anchorChanges++
		}
	}
	cell := NewCell(k, opts,
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 60}},
		mobility.Fixed{X: 30})
	seen := map[frame.PacketID]int{}
	cell.Gateway.SetVehicleDeliver(cell.Vehicle.Addr(), func(id frame.PacketID, p []byte, from uint16) { seen[id]++ })
	k.RunUntil(3 * time.Second)
	for i := 0; i < 800; i++ {
		k.At(3*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			cell.Vehicle.SendData(make([]byte, 100))
		})
	}
	k.RunUntil(50 * time.Second)

	if anchorChanges < 3 {
		t.Errorf("anchor changed %d times; flapping scenario not exercised", anchorChanges)
	}
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups != 0 {
		t.Errorf("%d packets delivered more than once through anchor flaps", dups)
	}
	if len(seen) < 700 {
		t.Errorf("only %d/800 delivered across flaps", len(seen))
	}
}

func TestBeaconStarvationLosesAnchor(t *testing.T) {
	// All links die at t=5s; within the staleness window the vehicle must
	// drop its anchor and refuse sends rather than blackholing silently.
	dead := func() radio.LinkModel {
		return &radio.ScheduleLink{PerSecond: []float64{1, 1, 1, 1, 1}} // zero after 5s
	}
	k := sim.NewKernel(23)
	opts := DefaultCellOptions()
	opts.LinkFactory = func(from, to radio.NodeID) radio.LinkModel { return dead() }
	cell := NewCell(k, opts, []mobility.Mover{mobility.Fixed{X: 0}}, mobility.Fixed{X: 30})
	k.RunUntil(4 * time.Second)
	if cell.Vehicle.Anchor() == frame.None {
		t.Fatal("no anchor while links were alive")
	}
	k.RunUntil(12 * time.Second)
	if cell.Vehicle.Anchor() != frame.None {
		t.Errorf("anchor %v retained %vs after total silence", cell.Vehicle.Anchor(), 7)
	}
	if cell.Vehicle.SendData([]byte("x")) {
		t.Error("send accepted with no reachable basestation")
	}
}

// TestPendingCapBounded: an auxiliary that overhears more than pendingCap
// packets between two relay ticks evicts the oldest instead of growing.
func TestPendingCapBounded(t *testing.T) {
	m := uniformMatrix(3, 0.9)
	m[0][2] = 0.95
	m[2][0] = 0.0 // anchor never hears the vehicle: every packet pends at the aux
	m[2][1] = 1.0
	k, cell := testCell(t, 24, DefaultConfig(), m, nil)
	k.RunUntil(3 * time.Second)
	aux, veh := cell.BSes[1], cell.Vehicle
	const extra = 10
	for seq := uint32(1); seq <= pendingCap+extra; seq++ {
		aux.considerPending(&frame.Frame{Type: frame.TypeData, Src: veh.Addr(), Dst: veh.Anchor(),
			Seq: seq, FromVehicle: true, Payload: make([]byte, 50)})
	}
	if got := len(aux.pending); got != pendingCap {
		t.Fatalf("pending buffer holds %d after %d overheard packets, want the cap %d", got, pendingCap+extra, pendingCap)
	}
	if oldest := aux.pending[0].key.id.Seq; oldest != extra+1 {
		t.Errorf("oldest kept packet is seq %d, want %d: eviction drops the oldest first", oldest, extra+1)
	}
}

func TestAlternativeCoordinatorsRunEndToEnd(t *testing.T) {
	// ¬G1/¬G2/¬G3 must work inside the full stack, with ¬G3 relaying at
	// least as much as ViFi (the §5.5.1 finding).
	m := uniformMatrix(4, 0.9)
	m[0][3] = 0.95 // anchor downstream
	m[3][0] = 0.9
	m[1][3] = 0.6
	m[2][3] = 0.6
	m[0][1], m[0][2] = 0.95, 0.95

	relays := func(kind CoordinatorKind) int {
		cfg := DefaultConfig()
		cfg.Coordinator = kind
		cfg.MaxRetx = 0
		count := 0
		k, cell := testCell(t, 25, cfg, m, func(e Event) {
			if e.Kind == EvAuxRelayed {
				count++
			}
		})
		k.RunUntil(3 * time.Second)
		for i := 0; i < 200; i++ {
			k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
				cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 100))
			})
		}
		k.RunUntil(10 * time.Second)
		return count
	}
	vifi := relays(CoordViFi)
	g3 := relays(CoordNotG3)
	g2 := relays(CoordNotG2)
	if vifi == 0 || g3 == 0 || g2 == 0 {
		t.Fatalf("some coordinator never relayed: vifi=%d g3=%d g2=%d", vifi, g3, g2)
	}
	if g3 < vifi {
		t.Errorf("¬G3 relayed less than ViFi (%d < %d); expected ≥", g3, vifi)
	}
}

func TestSalvageWindowExpiry(t *testing.T) {
	// Packets older than the salvage window must not be handed over.
	k := sim.NewKernel(26)
	opts := DefaultCellOptions()
	opts.LinkFactory = func(from, to radio.NodeID) radio.LinkModel {
		// Vehicle hears both BSes' beacons but anchor's data never
		// arrives, so downstream packets stay unacknowledged.
		if from == 0 && to == 2 {
			return &radio.ScheduleLink{PerSecond: onesThenZeros(6, 40)}
		}
		if from == 1 && to == 2 || from == 2 && to == 1 {
			return &radio.ScheduleLink{PerSecond: zerosThenOnes(6, 40)}
		}
		if from == 2 && to == 0 {
			return &radio.ScheduleLink{PerSecond: onesThenZeros(6, 40)}
		}
		return radio.FixedLink(0.3)
	}
	salvaged := 0
	opts.Events = func(e Event) {
		if e.Kind == EvSalvaged {
			salvaged++
		}
	}
	cell := NewCell(k, opts,
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 60}},
		mobility.Fixed{X: 30})
	k.RunUntil(3 * time.Second)
	// Ten downstream packets early (t≈3s) — far outside the 1s salvage
	// window by the time the anchor changes (t≈7-8s).
	for i := 0; i < 10; i++ {
		k.At(3*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 100))
		})
	}
	k.RunUntil(15 * time.Second)
	if salvaged != 0 {
		t.Errorf("%d packets salvaged from far outside the window", salvaged)
	}
}

func onesThenZeros(n, total int) []float64 {
	out := make([]float64, total)
	for i := 0; i < n && i < total; i++ {
		out[i] = 0.95
	}
	return out
}

func zerosThenOnes(n, total int) []float64 {
	out := make([]float64, total)
	for i := n; i < total; i++ {
		out[i] = 0.95
	}
	return out
}
