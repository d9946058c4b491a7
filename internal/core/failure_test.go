package core

import (
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/trace"
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
		return schedule(per)
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
		return schedule([]float64{1, 1, 1, 1, 1}) // zero after 5s
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
	// Packets older than the salvage window must not be handed over: ten
	// downstream packets at t≈3s are far outside the 1s window by the
	// time the anchor changes (t≈7s). A window that covers them salvages
	// them, so the handoff does pull from the old anchor.
	if salvaged, _, _ := salvageAfterHandoff(t, DefaultConfig(), 6); salvaged != 0 {
		t.Errorf("%d packets salvaged from far outside the window", salvaged)
	}
	cfg := DefaultConfig()
	cfg.SalvageWindow = salvageCacheTTL
	if salvaged, req, last := salvageAfterHandoff(t, cfg, 6); salvaged == 0 {
		t.Errorf("nothing salvaged %v after the packets arrived with a %v window", req-last, cfg.SalvageWindow)
	}
}

// TestSalvageWindowCappedByCacheTTL: a salvage window longer than the
// cache's TTL salvages nothing the TTL has expired. With a 10 s window
// and downstream traffic stopped 6 s before the salvage request, nothing
// is handed over — whether or not a trim got to the entries first.
func TestSalvageWindowCappedByCacheTTL(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SalvageWindow = 10 * time.Second
	salvaged, req, lastSend := salvageAfterHandoff(t, cfg, 9)
	if req-lastSend < 6*time.Second || req-lastSend > 8*time.Second {
		t.Fatalf("salvage request %v after the last downstream packet, want 6-8 s", req-lastSend)
	}
	if salvaged != 0 {
		t.Errorf("%d packets salvaged %v after they arrived: the %v window must be capped at the %v cache TTL",
			salvaged, req-lastSend, cfg.SalvageWindow, salvageCacheTTL)
	}

	// The hand-over itself skips an entry past the TTL that no trim has
	// dropped yet.
	k := sim.NewKernel(26)
	opts := DefaultCellOptions()
	opts.Protocol = cfg
	handed := 0
	opts.Events = func(e Event) {
		if e.Kind == EvSalvaged {
			handed++
		}
	}
	cell := NewCell(k, opts, []mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 60}}, mobility.Fixed{X: 30})
	k.RunUntil(8 * time.Second)
	old, veh := cell.BSes[0], cell.Vehicle.Addr()
	vs := old.ensureVeh(veh)
	vs.salvage = append(vs.salvage,
		downPkt{seq: 1, payload: make([]byte, 64), fromNetAt: k.Now() - 6*time.Second},
		downPkt{seq: 2, payload: make([]byte, 64), fromNetAt: k.Now() - 4*time.Second})
	old.handleSalvageReq(cell.BSes[1].Addr(), &frame.Frame{Type: frame.TypeSalvageReq, Target: veh})
	var left []uint32
	for _, d := range vs.salvage {
		left = append(left, d.seq)
	}
	if handed != 1 || !slices.Equal(left, []uint32{1}) {
		t.Errorf("handed over %d entries, leaving seqs %v; want the 4 s old entry (seq 2) handed over and only the 6 s old one (seq 1) left, past the %v TTL",
			handed, left, salvageCacheTTL)
	}
}

// salvageAfterHandoff sends ten downstream packets at t≈3s to a vehicle
// that stops hearing its anchor (bs0) just then, so they stay
// unacknowledged in bs0's salvage cache, and lets it hear bs1 from second
// handoff on. It returns the packets salvaged, when the (first) salvage
// request went out and when the last packet was sent.
func salvageAfterHandoff(t *testing.T, cfg Config, handoff int) (salvaged int, req, lastSend time.Duration) {
	t.Helper()
	k := sim.NewKernel(26)
	opts := DefaultCellOptions()
	opts.Protocol = cfg
	opts.LinkFactory = func(from, to radio.NodeID) radio.LinkModel {
		// Node ids: bs0=0, bs1=1, veh=2. bs0 keeps hearing the vehicle's
		// beacons, so it stays the anchor the gateway sends through.
		switch [2]radio.NodeID{from, to} {
		case [2]radio.NodeID{0, 2}:
			return schedule(onesThenZeros(3, 40))
		case [2]radio.NodeID{2, 0}:
			return radio.FixedLink(0.95)
		case [2]radio.NodeID{1, 2}, [2]radio.NodeID{2, 1}:
			return schedule(zerosThenOnes(handoff, 40))
		}
		return radio.FixedLink(0.3)
	}
	opts.Events = func(e Event) {
		switch {
		case e.Kind == EvSalvaged:
			salvaged++
		case e.Kind == EvSalvageReq && req == 0:
			req = e.At
		}
	}
	cell := NewCell(k, opts,
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 60}},
		mobility.Fixed{X: 30})
	k.RunUntil(3 * time.Second)
	for i := 0; i < 10; i++ {
		k.At(3*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 100))
			lastSend = k.Now()
		})
	}
	k.RunUntil(time.Duration(handoff+9) * time.Second)
	if req == 0 {
		t.Fatal("the anchor never changed: no salvage request")
	}
	return salvaged, req, lastSend
}

// schedule replays per[s] as the reception probability during second s,
// and zero beyond it, as the one column of a one-basestation trace.
func schedule(per []float64) radio.LinkModel {
	tr := &trace.Trace{BSes: []string{"bs"}, Ratio: make([][]float64, len(per))}
	for s, p := range per {
		tr.Ratio[s] = []float64{p}
	}
	return tr.ScheduleLinks()[0]
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
