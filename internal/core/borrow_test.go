package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// Decoded frames are borrowed for the upcall (DESIGN §6): the decoder
// overwrites them on its next decode. These tests hold the retention
// sites to that — what a node keeps past the upcall must be its own copy.
// No golden localises a slip here; it shows only as some later packet
// carrying another packet's bytes.

func marshal(t *testing.T, f *frame.Frame) []byte {
	t.Helper()
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestOverheardPacketSurvivesLaterReceptions: an auxiliary overhears a
// data frame and then, before its relay tick, hears beacons, an
// acknowledgment for another packet and a second data frame — all through
// one decoder, as the channel delivers them. What it relays must still be
// the first frame.
func TestOverheardPacketSurvivesLaterReceptions(t *testing.T) {
	cfg := DefaultConfig()
	k, cell := oneAuxCell(t, 11, cfg, nil)
	k.RunUntil(3 * time.Second)
	anchor, aux, veh := cell.BSes[0].Addr(), cell.BSes[1], cell.Vehicle.Addr()
	if vs := aux.vehs[veh]; vs == nil || vs.anchor != anchor || !contains(vs.aux, aux.Addr()) {
		t.Fatalf("warm-up left bs1's view of the vehicle at %+v, want anchor bs0 and bs1 auxiliary", vs)
	}

	// Upstream relays travel the backplane to the anchor: listen there.
	var relayed []*frame.Frame
	cell.Backplane.Attach(anchor, func(from uint16, p []byte) {
		if f, err := frame.Unmarshal(p); err == nil && f.Type == frame.TypeRelay && from == aux.Addr() {
			relayed = append(relayed, f)
		}
	})

	var air frame.Decoder
	hear := func(f *frame.Frame) {
		g, err := air.Decode(marshal(t, f))
		if err != nil {
			t.Fatal(err)
		}
		aux.handleFrame(g, radio.RxInfo{})
	}
	first := &frame.Frame{Type: frame.TypeData, Src: veh, Dst: anchor, Seq: 900, Attempt: 1,
		FromVehicle: true, Payload: bytes.Repeat([]byte("first overheard packet: these bytes must reach the anchor. "), 4)}
	// Shorter than the first, so a decoder reusing its payload buffer writes
	// these bytes over the first frame's.
	second := &frame.Frame{Type: frame.TypeData, Src: veh, Dst: anchor, Seq: 901,
		FromVehicle: true, Payload: bytes.Repeat([]byte("SECOND"), 20)}
	hear(first)
	hear(&frame.Frame{Type: frame.TypeBeacon, Src: anchor, Dst: frame.Broadcast,
		Beacon: &frame.Beacon{Anchor: frame.None, PrevAnchor: frame.None,
			Probs: []frame.ProbEntry{{From: 50, To: 51, Prob: 0.5}, {From: 51, To: 50, Prob: 0.25}}}})
	hear(&frame.Frame{Type: frame.TypeBeacon, Src: veh, Dst: frame.Broadcast, FromVehicle: true,
		Beacon: &frame.Beacon{Anchor: anchor, PrevAnchor: frame.None, Aux: []uint16{aux.Addr()}}})
	hear(&frame.Frame{Type: frame.TypeAck, Src: anchor, Dst: frame.Broadcast, AckSrc: veh, AckSeq: 77})
	hear(second)
	k.RunUntil(k.Now() + 200*time.Millisecond) // relay tick, then the backplane's latency

	if len(relayed) != 2 {
		t.Fatalf("anchor received %d relays from bs1, want 2", len(relayed))
	}
	for i, want := range []*frame.Frame{first, second} {
		got := relayed[i]
		if got.Orig != want.Src || got.Seq != want.Seq || got.Attempt != want.Attempt || got.Dst != want.Dst {
			t.Errorf("relay %d: orig/seq/attempt/dst = %d/%d/%d/%d, overheard %d/%d/%d/%d",
				i, got.Orig, got.Seq, got.Attempt, got.Dst, want.Src, want.Seq, want.Attempt, want.Dst)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("relay %d carries %q, overheard %q", i, got.Payload, want.Payload)
		}
	}
}

// TestSalvagedPacketSurvivesLaterBackplaneTraffic: an anchor records a
// downstream packet in its salvage cache, then receives more backplane
// traffic through the same decoder; the packet it later hands to the new
// anchor must still be the one the gateway sent.
func TestSalvagedPacketSurvivesLaterBackplaneTraffic(t *testing.T) {
	m := uniformMatrix(3, 1)
	m[0][2] = 0 // the vehicle never hears bs0, so nothing it sends down is acknowledged
	k, cell := testCell(t, 12, DefaultConfig(), m, nil)
	k.RunUntil(3 * time.Second)
	old, next, veh := cell.BSes[0], cell.BSes[1].Addr(), cell.Vehicle.Addr()

	var salvaged []*frame.Frame
	cell.Backplane.Attach(next, func(from uint16, p []byte) {
		if f, err := frame.Unmarshal(p); err == nil && f.Type == frame.TypeSalvageData {
			salvaged = append(salvaged, f)
		}
	})

	gw := old.gatewayAddr
	// Each payload shorter than the one before, so a decoder reusing its
	// payload buffer writes it over its predecessors.
	first := bytes.Repeat([]byte("first downstream packet: these bytes must be salvaged. "), 4)
	second := bytes.Repeat([]byte("SECOND"), 20)
	old.handleBackplane(gw, marshal(t, &frame.Frame{Type: frame.TypeRelay, Src: gw, Dst: old.Addr(), Orig: veh, Payload: first}))
	old.handleBackplane(gw, marshal(t, &frame.Frame{Type: frame.TypeRelay, Src: gw, Dst: old.Addr(), Orig: veh, Payload: second}))
	old.handleBackplane(next, marshal(t, &frame.Frame{Type: frame.TypeRelay, Src: next, Dst: old.Addr(),
		Seq: 5, Orig: veh, Relayed: true, Payload: []byte("an upstream relay from an auxiliary")}))
	old.handleBackplane(next, marshal(t, &frame.Frame{Type: frame.TypeSalvageReq, Src: next, Dst: old.Addr(), Target: 999}))
	old.handleBackplane(next, marshal(t, &frame.Frame{Type: frame.TypeSalvageReq, Src: next, Dst: old.Addr(), Target: veh}))
	k.RunUntil(k.Now() + 200*time.Millisecond)

	if len(salvaged) != 2 {
		t.Fatalf("new anchor received %d salvaged packets, want 2", len(salvaged))
	}
	for i, want := range [][]byte{first, second} {
		if salvaged[i].Orig != veh || !bytes.Equal(salvaged[i].Payload, want) {
			t.Errorf("salvaged packet %d: vehicle %d payload %q, want vehicle %d payload %q",
				i, salvaged[i].Orig, salvaged[i].Payload, veh, want)
		}
	}
}

// sortSampler is the copy-and-sort delaySampler this package used to have,
// kept as the oracle for the ordered-window one.
type sortSampler struct {
	ring []time.Duration
	next int
	full bool
}

func (d *sortSampler) add(v time.Duration) {
	d.ring[d.next] = v
	d.next++
	if d.next == len(d.ring) {
		d.next, d.full = 0, true
	}
}

func (d *sortSampler) quantile(q float64) time.Duration {
	n := d.next
	if d.full {
		n = len(d.ring)
	}
	if n == 0 {
		return 0
	}
	buf := slices.Clone(d.ring[:n])
	slices.Sort(buf)
	return buf[int(q*float64(n-1))]
}

// TestDelaySamplerMatchesSort: the §4.7 retransmit quantile read off the
// ordered window equals the one a full sort of the window gives, sample
// for sample, across wrap-arounds, heavy duplicates and a reset.
func TestDelaySamplerMatchesSort(t *testing.T) {
	const window = 512
	rng := sim.NewRNG(20)
	dut, ref := newDelaySampler(window), &sortSampler{ring: make([]time.Duration, window)}
	check := func(i int) {
		t.Helper()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := dut.quantile(q), ref.quantile(q); got != want {
				t.Fatalf("after %d adds: quantile(%v) = %v, sorting the window gives %v", i, q, got, want)
			}
		}
	}
	check(0)
	for i := 1; i <= 10000; i++ {
		// Mostly a handful of repeated delays, now and then an outlier.
		v := time.Duration(rng.Intn(12)) * time.Millisecond
		if rng.Intn(50) == 0 {
			v = time.Duration(rng.Intn(1e9))
		}
		dut.add(v)
		ref.add(v)
		check(i)
		if i == 6000 { // mid-window, after 11 wrap-arounds
			dut.reset()
			ref = &sortSampler{ring: make([]time.Duration, window)}
			check(i)
		}
	}
	if dut.size() != window {
		t.Fatalf("size = %d after filling, want %d", dut.size(), window)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		dut.add(time.Duration(rng.Intn(12)) * time.Millisecond)
		dut.quantile(0.99)
	})
	if allocs != 0 {
		t.Errorf("warm sampler allocates %.1f objects per add+quantile, want 0", allocs)
	}
}

// TestDelaySamplerGrowsOnDemand: a node that never takes a sample pays for
// no window (484 of metro-cbr's 500 nodes), and ColdRestart's reset keeps
// what a node has instead of allocating it again.
func TestDelaySamplerGrowsOnDemand(t *testing.T) {
	d := newDelaySampler(512)
	if cap(d.ring) != 0 || cap(d.sorted) != 0 {
		t.Errorf("fresh sampler holds %d+%d slots, want none", cap(d.ring), cap(d.sorted))
	}
	for i := 0; i < 2000; i++ {
		d.add(time.Duration(i))
	}
	if cap(d.ring) > 512 || cap(d.sorted) > 512+1 {
		t.Errorf("window of 512 grew to %d+%d slots", cap(d.ring), cap(d.sorted))
	}
	if allocs := testing.AllocsPerRun(100, d.reset); allocs != 0 || d.size() != 0 || d.quantile(0.99) != 0 {
		t.Errorf("reset: %.1f allocs, size %d, quantile %v; want an empty window and no allocation",
			allocs, d.size(), d.quantile(0.99))
	}
}
