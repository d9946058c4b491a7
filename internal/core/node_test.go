package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/backplane"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mac"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// matrixFactory drives every directed link from a probability matrix
// indexed by radio.NodeID (basestations first, vehicle last).
func matrixFactory(m [][]float64) radio.LinkFactory {
	return func(from, to radio.NodeID) radio.LinkModel {
		return radio.FixedLink(m[from][to])
	}
}

// testCell builds a cell of len(m)-1 basestations plus a vehicle with the
// given link matrix and protocol config.
func testCell(t testing.TB, seed int64, cfg Config, m [][]float64, events EventFunc) (*sim.Kernel, *Cell) {
	t.Helper()
	k := sim.NewKernel(seed)
	opts := DefaultCellOptions()
	opts.Protocol = cfg
	opts.LinkFactory = matrixFactory(m)
	opts.Events = events
	nbs := len(m) - 1
	movers := make([]mobility.Mover, nbs)
	for i := range movers {
		movers[i] = mobility.Fixed{X: float64(i) * 60}
	}
	cell := NewCell(k, opts, movers, mobility.Fixed{X: float64(nbs) * 60})
	return k, cell
}

// uniformMatrix builds an n×n matrix with every off-diagonal entry p.
func uniformMatrix(n int, p float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = p
			}
		}
	}
	return m
}

func TestAnchorAcquisition(t *testing.T) {
	k, cell := testCell(t, 1, DefaultConfig(), uniformMatrix(2, 1), nil)
	k.RunUntil(3 * time.Second)
	if got := cell.Vehicle.Anchor(); got != cell.BSes[0].Addr() {
		t.Fatalf("anchor = %v, want %v", got, cell.BSes[0].Addr())
	}
	// The gateway must have the registration.
	if a := cell.Gateway.AnchorOf(cell.Vehicle.Addr()); a != cell.BSes[0].Addr() {
		t.Errorf("gateway anchor = %v, want %v", a, cell.BSes[0].Addr())
	}
}

func TestAnchorPrefersBestBS(t *testing.T) {
	// bs1 → vehicle is much better than bs0 → vehicle.
	m := uniformMatrix(3, 0.9)
	veh, bs0, bs1 := 2, 0, 1
	m[bs0][veh] = 0.3
	m[bs1][veh] = 0.95
	k, cell := testCell(t, 2, DefaultConfig(), m, nil)
	k.RunUntil(5 * time.Second)
	if got := cell.Vehicle.Anchor(); got != cell.BSes[1].Addr() {
		t.Fatalf("anchor = %v, want bs1 (%v)", got, cell.BSes[1].Addr())
	}
}

func TestUpstreamDeliveryPerfectLinks(t *testing.T) {
	k, cell := testCell(t, 3, DefaultConfig(), uniformMatrix(2, 1), nil)
	var got [][]byte
	cell.Gateway.SetVehicleDeliver(cell.Vehicle.Addr(), func(id frame.PacketID, payload []byte, from uint16) {
		got = append(got, append([]byte(nil), payload...)) // borrowed: copy to keep
	})
	k.RunUntil(3 * time.Second) // warm up anchor selection
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		k.At(3*time.Second+time.Duration(i)*20*time.Millisecond, func() {
			if !cell.Vehicle.SendData([]byte(fmt.Sprintf("pkt-%03d", i))) {
				t.Errorf("send %d rejected (no anchor)", i)
			}
		})
	}
	k.RunUntil(6 * time.Second)
	if len(got) != n {
		t.Fatalf("gateway received %d/%d packets", len(got), n)
	}
	if string(got[0]) != "pkt-000" {
		t.Errorf("first payload = %q", got[0])
	}
}

func TestDownstreamDeliveryPerfectLinks(t *testing.T) {
	k, cell := testCell(t, 4, DefaultConfig(), uniformMatrix(2, 1), nil)
	var got int
	cell.Vehicle.SetDeliver(func(id frame.PacketID, payload []byte, from uint16) { got++ })
	k.RunUntil(3 * time.Second)
	const n = 50
	for i := 0; i < n; i++ {
		k.At(3*time.Second+time.Duration(i)*20*time.Millisecond, func() {
			cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 200))
		})
	}
	k.RunUntil(6 * time.Second)
	if got != n {
		t.Fatalf("vehicle received %d/%d packets", got, n)
	}
}

func TestNoDuplicateAppDelivery(t *testing.T) {
	// Lossy acks force retransmissions; the app must still see each
	// packet exactly once.
	m := uniformMatrix(2, 0.6)
	cfg := DefaultConfig()
	cfg.MaxRetx = 5
	k, cell := testCell(t, 5, cfg, m, nil)
	seen := map[string]int{}
	cell.Gateway.SetVehicleDeliver(cell.Vehicle.Addr(), func(id frame.PacketID, payload []byte, from uint16) {
		seen[string(payload)]++
	})
	k.RunUntil(3 * time.Second)
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		k.At(3*time.Second+time.Duration(i)*30*time.Millisecond, func() {
			cell.Vehicle.SendData([]byte(fmt.Sprintf("pkt-%04d", i)))
		})
	}
	k.RunUntil(10 * time.Second)
	for p, c := range seen {
		if c != 1 {
			t.Errorf("payload %q delivered %d times", p, c)
		}
	}
	if len(seen) < n*8/10 {
		t.Errorf("only %d/%d packets delivered despite retransmissions", len(seen), n)
	}
}

func TestRetransmissionRecoversLosses(t *testing.T) {
	m := uniformMatrix(2, 1)
	veh, bs := 1, 0
	m[veh][bs] = 0.5 // lossy upstream data path
	noRetx := BRRConfig()
	noRetx.MaxRetx = 0
	withRetx := BRRConfig()
	withRetx.MaxRetx = 3

	run := func(cfg Config, seed int64) int {
		k, cell := testCell(t, seed, cfg, m, nil)
		n := 0
		cell.Gateway.SetVehicleDeliver(cell.Vehicle.Addr(), func(frame.PacketID, []byte, uint16) { n++ })
		k.RunUntil(3 * time.Second)
		for i := 0; i < 200; i++ {
			k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
				cell.Vehicle.SendData(make([]byte, 100))
			})
		}
		k.RunUntil(12 * time.Second)
		return n
	}
	plain := run(noRetx, 6)
	retx := run(withRetx, 6)
	if plain > 130 {
		t.Errorf("no-retx delivered %d/200; link not lossy enough", plain)
	}
	// 1−0.5⁴ ≈ 94% minus collision noise.
	if retx < 175 {
		t.Errorf("retx delivered only %d/200", retx)
	}
}

func TestUpstreamRelayingBeatsBRR(t *testing.T) {
	// Anchor has the best downstream link (so it stays anchor) but a bad
	// upstream link; an auxiliary hears the vehicle well and should relay
	// over the backplane (§4.3).
	m := uniformMatrix(3, 0.9)
	bs0, bs1, veh := 0, 1, 2
	m[bs0][veh] = 0.9 // bs0 anchored (best downstream)
	m[bs1][veh] = 0.6
	m[veh][bs0] = 0.25 // gray upstream to the anchor
	m[veh][bs1] = 0.95 // auxiliary hears the vehicle well

	run := func(cfg Config) int {
		cfg.MaxRetx = 0 // isolate diversity from retransmission
		k, cell := testCell(t, 7, cfg, m, nil)
		n := 0
		cell.Gateway.SetVehicleDeliver(cell.Vehicle.Addr(), func(frame.PacketID, []byte, uint16) { n++ })
		k.RunUntil(3 * time.Second)
		for i := 0; i < 300; i++ {
			k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
				cell.Vehicle.SendData(make([]byte, 100))
			})
		}
		k.RunUntil(13 * time.Second)
		return n
	}
	brr := run(BRRConfig())
	vifi := run(DefaultConfig())
	if brr > 120 {
		t.Errorf("BRR delivered %d/300 over a 0.25 link — too many", brr)
	}
	if vifi < brr*2 {
		t.Errorf("ViFi (%d) should at least double BRR (%d) here", vifi, brr)
	}
	if vifi < 240 {
		t.Errorf("ViFi delivered %d/300, want most packets via relay", vifi)
	}
}

func TestDownstreamRelayingBeatsBRR(t *testing.T) {
	// The anchor's downstream link is mediocre; an auxiliary that hears
	// the anchor well and reaches the vehicle well relays over the air.
	m := uniformMatrix(3, 0.95)
	bs0, bs1, veh := 0, 1, 2
	m[bs0][veh] = 0.5  // anchor downstream: mediocre
	m[bs1][veh] = 0.45 // slightly worse, stays auxiliary
	m[veh][bs0] = 0.9
	m[veh][bs1] = 0.9

	run := func(cfg Config) int {
		cfg.MaxRetx = 0
		k, cell := testCell(t, 8, cfg, m, nil)
		n := 0
		cell.Vehicle.SetDeliver(func(frame.PacketID, []byte, uint16) { n++ })
		k.RunUntil(3 * time.Second)
		for i := 0; i < 300; i++ {
			k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
				cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 100))
			})
		}
		k.RunUntil(13 * time.Second)
		return n
	}
	brr := run(BRRConfig())
	vifi := run(DefaultConfig())
	if vifi <= brr {
		t.Fatalf("downstream relaying did not help: ViFi %d vs BRR %d", vifi, brr)
	}
	if float64(vifi) < float64(brr)*1.3 {
		t.Errorf("downstream diversity gain too small: ViFi %d vs BRR %d", vifi, brr)
	}
}

func TestRelayEventsEmitted(t *testing.T) {
	m := uniformMatrix(3, 0.9)
	m[0][2] = 0.95 // bs0 is the unambiguous anchor (best downstream)
	m[1][2] = 0.7
	m[2][0] = 0.2  // anchor hears the vehicle poorly
	m[2][1] = 0.95 // the auxiliary hears it well
	var events []Event
	cfg := DefaultConfig()
	cfg.MaxRetx = 0
	k, cell := testCell(t, 9, cfg, m, func(e Event) { events = append(events, e) })
	k.RunUntil(3 * time.Second)
	for i := 0; i < 100; i++ {
		k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
			cell.Vehicle.SendData(make([]byte, 100))
		})
	}
	k.RunUntil(8 * time.Second)

	count := map[EventKind]int{}
	for _, e := range events {
		count[e.Kind]++
	}
	if count[EvSrcTx] == 0 || count[EvAuxHeard] == 0 || count[EvAuxRelayed] == 0 {
		t.Fatalf("missing probe events: %+v", count)
	}
	if count[EvAuxSuppressed] == 0 {
		t.Error("no suppressions — acks should occasionally beat the relay timer")
	}
	if count[EvDeliver] == 0 {
		t.Error("no deliveries recorded")
	}
	// Every relayed upstream event must be on the backplane medium.
	for _, e := range events {
		if e.Kind == EvAuxRelayed && e.Dir == Up && e.Medium != MediumBackplane {
			t.Error("upstream relay not on the backplane")
		}
	}
}

func TestSalvageRecoversInFlightPackets(t *testing.T) {
	// The vehicle starts in bs0's coverage and hops to bs1. Downstream
	// packets sent around the handoff should be salvaged by bs1 (§4.5).
	mkSchedule := func(goodFirst bool) radio.LinkModel {
		per := make([]float64, 40)
		for s := range per {
			if (s < 12) == goodFirst {
				per[s] = 0.95
			}
		}
		return schedule(per)
	}
	factory := func(from, to radio.NodeID) radio.LinkModel {
		// Node ids: bs0=0, bs1=1, veh=2.
		pair := [2]radio.NodeID{from, to}
		switch {
		case pair[0] == 2 && pair[1] == 0, pair[0] == 0 && pair[1] == 2:
			return mkSchedule(true)
		case pair[0] == 2 && pair[1] == 1, pair[0] == 1 && pair[1] == 2:
			return mkSchedule(false)
		default:
			return radio.FixedLink(0.2) // BSes barely hear each other
		}
	}

	run := func(cfg Config) (delivered int, salvaged int) {
		k := sim.NewKernel(10)
		opts := DefaultCellOptions()
		opts.Protocol = cfg
		opts.LinkFactory = factory
		opts.Events = func(e Event) {
			if e.Kind == EvSalvaged {
				salvaged++
			}
		}
		cell := NewCell(k, opts,
			[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 60}},
			mobility.Fixed{X: 30})
		cell.Vehicle.SetDeliver(func(frame.PacketID, []byte, uint16) { delivered++ })
		k.RunUntil(3 * time.Second)
		for i := 0; i < 400; i++ {
			k.At(3*time.Second+time.Duration(i)*40*time.Millisecond, func() {
				cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 100))
			})
		}
		k.RunUntil(30 * time.Second)
		return delivered, salvaged
	}

	cfgNo := DefaultConfig()
	cfgNo.EnableSalvage = false
	noSalv, s0 := run(cfgNo)
	withSalv, s1 := run(DefaultConfig())
	if s0 != 0 {
		t.Errorf("salvage events with salvaging disabled: %d", s0)
	}
	if s1 == 0 {
		t.Fatal("no salvage events during the handoff")
	}
	if withSalv <= noSalv {
		t.Errorf("salvaging did not improve delivery: %d vs %d", withSalv, noSalv)
	}
}

func TestBitmapReAck(t *testing.T) {
	// Make acks lossy (vehicle→bs fine, bs→vehicle acks fine, but
	// vehicle→bs ACK path lossy for downstream). The bitmap on later data
	// frames should trigger re-acks and suppress spurious retransmissions.
	m := uniformMatrix(2, 1)
	m[1][0] = 0.4 // vehicle → bs: data fine upstream not used; acks lossy
	cfg := DefaultConfig()
	cfg.MaxRetx = 3
	var reTx, srcTx int
	k, cell := testCell(t, 11, cfg, m, func(e Event) {
		if e.Kind == EvSrcTx && e.Dir == Down {
			srcTx++
			if e.Attempt > 0 {
				reTx++
			}
		}
	})
	delivered := 0
	cell.Vehicle.SetDeliver(func(frame.PacketID, []byte, uint16) { delivered++ })
	k.RunUntil(3 * time.Second)
	const n = 200
	for i := 0; i < n; i++ {
		k.At(3*time.Second+time.Duration(i)*25*time.Millisecond, func() {
			cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 100))
		})
	}
	k.RunUntil(12 * time.Second)
	if delivered != n {
		t.Fatalf("delivered %d/%d", delivered, n)
	}
	// Without the bitmap every lost ack (60%) would trigger a
	// retransmission; with it, a later frame's bitmap elicits a re-ack
	// first in many cases. Just require substantially fewer retx than
	// losses.
	lost := float64(srcTx-reTx) * 0.6
	if float64(reTx) > lost*0.9 {
		t.Errorf("retransmissions %d vs expected ack losses %.0f: the bitmap elicits too few re-acks", reTx, lost)
	}
}

// TestBitmapNamesOnlyInFlightPackets: the §4.8 bitmap names a packet only
// while its sender still waits for the ack. bs0 sends bursts of two
// packets to an address nobody answers, with MaxRetx = 0, so every packet
// is given up one retxInit after its only transmission — before the next
// burst. bs1 overhears every data frame: the second packet of a burst
// names the first (still in flight), and no frame names a packet given up
// before it went out. Run with about 10 and about 70 packets given up, on
// both sides of the 64 records a sender once kept before pruning them.
func TestBitmapNamesOnlyInFlightPackets(t *testing.T) {
	for _, bursts := range []int{5, 35} {
		t.Run(fmt.Sprint(2*bursts, "_given_up"), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxRetx = 0
			given := map[uint32]bool{}
			var bs0 uint16
			k, cell := testCell(t, 21, cfg, uniformMatrix(3, 1), func(e Event) {
				if e.Kind == EvSrcDrop && e.Node == bs0 {
					given[e.ID.Seq] = true
				}
			})
			sender, listener := cell.BSes[0], cell.BSes[1]
			bs0 = sender.Addr()
			const nobody = 999
			heard, named := 0, 0
			listener.MAC().SetHandler(mac.HandlerFunc(func(f *frame.Frame, _ radio.RxInfo) {
				if f.Type != frame.TypeData || f.Src != bs0 {
					return
				}
				heard++
				for i := range 8 {
					if f.AckBitmap&(1<<i) == 0 {
						continue
					}
					seq := f.Seq - 1 - uint32(i)
					if given[seq] {
						t.Errorf("data frame %d names seq %d, given up before it was sent", f.Seq, seq)
					}
					named++
				}
			}))
			const gap = 3 * retxInit
			for b := range bursts {
				k.At(time.Second+time.Duration(b)*gap, func() {
					sender.enqueueData(nobody, make([]byte, 100), Down)
					sender.enqueueData(nobody, make([]byte, 100), Down)
				})
			}
			k.RunUntil(time.Second + time.Duration(bursts)*gap)
			if len(given) != 2*bursts {
				t.Fatalf("%d packets given up, want %d", len(given), 2*bursts)
			}
			t.Logf("bs1 heard %d data frames with %d bitmap bits set", heard, named)
			if heard < bursts || named == 0 {
				t.Errorf("bs1 heard %d data frames naming %d packets: the run does not exercise the bitmap", heard, named)
			}
			if len(sender.outstanding) != 0 {
				t.Errorf("%d given-up packets still in outstanding", len(sender.outstanding))
			}
		})
	}
}

func TestProbGossipPropagates(t *testing.T) {
	// bs1 must learn p(veh→bs0) from bs0's beacons even though it cannot
	// measure that link itself (§4.6).
	m := uniformMatrix(3, 0.9)
	m[2][0] = 0.55 // veh→bs0: the value to be learned
	k, cell := testCell(t, 12, DefaultConfig(), m, nil)
	k.RunUntil(8 * time.Second)
	got := cell.BSes[1].Probs().Get(cell.Vehicle.Addr(), cell.BSes[0].Addr(), k.Now())
	if got < 0.3 || got > 0.8 {
		t.Errorf("gossiped p(veh→bs0) = %v, want ≈0.55", got)
	}
}

func TestDelaySampler(t *testing.T) {
	d := newDelaySampler(8)
	if d.quantile(0.99) != 0 {
		t.Error("empty sampler quantile should be 0")
	}
	for i := 1; i <= 8; i++ {
		d.add(time.Duration(i) * time.Millisecond)
	}
	if got := d.quantile(0.0); got != time.Millisecond {
		t.Errorf("q0 = %v", got)
	}
	if got := d.quantile(1.0); got != 8*time.Millisecond {
		t.Errorf("q1 = %v", got)
	}
	// Ring overwrite: add 8 more larger values.
	for i := 11; i <= 18; i++ {
		d.add(time.Duration(i) * time.Millisecond)
	}
	if got := d.quantile(0.0); got != 11*time.Millisecond {
		t.Errorf("after wrap q0 = %v", got)
	}
	if d.size() != 8 {
		t.Errorf("size = %d", d.size())
	}
}

func TestProbTable(t *testing.T) {
	pt := NewProbTable(0.5, 2*time.Second)
	pt.ObserveLocal(1, 2, 0.8, time.Second)
	if got := pt.Get(1, 2, time.Second); got != 0.8 {
		t.Errorf("local = %v", got)
	}
	// Gossip must not override fresh local.
	pt.ObserveGossip(1, 2, 0.1, time.Second)
	if got := pt.Get(1, 2, time.Second); got != 0.8 {
		t.Errorf("gossip overrode local: %v", got)
	}
	// After local goes stale, gossip (if fresh) wins.
	pt.ObserveGossip(1, 2, 0.3, 4*time.Second)
	if got := pt.Get(1, 2, 4*time.Second); got != 0.3 {
		t.Errorf("stale local not superseded: %v", got)
	}
	// Everything stale → 0.
	if got := pt.Get(1, 2, 10*time.Second); got != 0 {
		t.Errorf("stale entry = %v, want 0", got)
	}
	// Self-loop is always 1.
	if pt.Get(7, 7, 0) != 1 {
		t.Error("self probability must be 1")
	}
}

func TestBeaconCounterDecay(t *testing.T) {
	pt := NewProbTable(0.5, 3*time.Second)
	const expected = 10 // beacons per window
	// 10/10 beacons in window 1.
	for i := 0; i < 10; i++ {
		pt.observeBeacon(4, 9, false, nil, time.Duration(i)*100*time.Millisecond)
	}
	pt.flush(9, expected, time.Second)
	if got := pt.Get(4, 9, time.Second); got != 1 {
		t.Fatalf("ratio = %v, want 1", got)
	}
	// Silence: estimates decay by half each window.
	pt.flush(9, expected, 2*time.Second)
	if got := pt.Get(4, 9, 2*time.Second); got != 0.5 {
		t.Errorf("after one silent window = %v, want 0.5", got)
	}
	pt.flush(9, expected, 3*time.Second)
	if got := pt.Get(4, 9, 3*time.Second); got != 0.25 {
		t.Errorf("after two silent windows = %v, want 0.25", got)
	}
}

func TestVehicleSendWithoutAnchor(t *testing.T) {
	k, cell := testCell(t, 13, DefaultConfig(), uniformMatrix(2, 0), nil)
	k.RunUntil(2 * time.Second)
	if cell.Vehicle.SendData([]byte("x")) {
		t.Error("send accepted without an anchor")
	}
}

func TestGatewaySendWithoutRegistration(t *testing.T) {
	k := sim.NewKernel(14)
	bp := backplane.New(k, backplane.DefaultConfig())
	gw := NewGatewayAt(k, bp, GatewayAddr, DefaultConfig(), nil)
	if gw.Send(42, []byte("x")) {
		t.Error("gateway send succeeded without a registered anchor")
	}
	if gw.NoAnchorDrops != 1 {
		t.Errorf("NoAnchorDrops = %d", gw.NoAnchorDrops)
	}
}
