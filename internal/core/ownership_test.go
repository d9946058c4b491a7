package core

import (
	"testing"
	"time"
	"unsafe"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// TestPooledPayloadOwnership audits the two places that keep a packet past
// its upcall on pooled buffers — the auxiliary's pending list and the
// anchor's salvage cache — together with the senders' in-flight records.
// A vehicle drives past a row of basestations with traffic both ways, so
// every release point runs: relay decisions, ack suppressions, salvage
// hand-overs and TTL trims. Afterwards every payload still owned must be
// its own buffer, and none may be in the channel's pool: draining the
// pool's classes must turn up neither an owned buffer (a Put that kept
// its entry) nor one buffer twice (a double Put).
func TestPooledPayloadOwnership(t *testing.T) {
	k := sim.NewKernel(11)
	var counts [NumEventKinds]int
	opts := DefaultCellOptions()
	opts.Events = func(e Event) { counts[e.Kind]++ }
	bs := []mobility.Mover{
		mobility.Fixed{X: 0}, mobility.Fixed{X: 150, Y: 20}, mobility.Fixed{X: 300},
		mobility.Fixed{X: 450, Y: 20}, mobility.Fixed{X: 600},
	}
	route := mobility.NewRoute([]mobility.Point{{X: -50, Y: 10}, {X: 650, Y: 10}}, mobility.KmhToMps(36), false)
	cell := NewCell(k, opts, bs, &mobility.RouteMover{Route: route})
	veh := cell.Vehicle.Addr()

	// 25 downstream packets a second: a salvage cache holds at most a few
	// hundred entries, far below salvageCacheCap, so every entry it drops
	// has expired.
	up, down := make([]byte, 200), make([]byte, 300)
	const end = 55 * time.Second
	k.Every(time.Second, 40*time.Millisecond, int((end-time.Second)/(40*time.Millisecond)), func(int) {
		cell.Vehicle.SendData(up)
		cell.Gateway.Send(veh, down)
	})
	k.RunUntil(end + 13*time.Millisecond) // stop mid-traffic: entries are in flight

	for _, ev := range []struct {
		kind EventKind
		what string
	}{{EvAuxRelayed, "relays"}, {EvAuxSuppressed, "suppressions"}, {EvSalvageReq, "salvage requests"}} {
		if counts[ev.kind] == 0 {
			t.Errorf("no %s: the run does not exercise that release point", ev.what)
		}
	}
	trimmed := false
	for _, n := range cell.BSes {
		if vs := n.vehs[veh]; vs != nil && len(vs.salvage) < int(n.nextSeq) {
			trimmed = true
		}
	}
	if !trimmed {
		t.Error("no salvage cache dropped an expired entry")
	}

	owned := map[*byte]string{}
	classes := map[int]bool{}
	own := func(b []byte, what string) {
		if cap(b) == 0 {
			return
		}
		p := unsafe.SliceData(b)
		if prev, dup := owned[p]; dup {
			t.Errorf("%s and %s share one buffer", prev, what)
		}
		owned[p] = what
		classes[cap(b)] = true
	}
	for _, n := range append([]*Node{cell.Vehicle}, cell.BSes...) {
		for _, e := range n.pending {
			own(e.pkt.payload, "a pending entry")
		}
		for _, vs := range n.vehs {
			for _, d := range vs.salvage {
				own(d.payload, "a salvage entry")
			}
		}
		for _, p := range n.outstanding {
			own(p.payload, "an outstanding packet")
		}
	}
	if len(owned) == 0 {
		t.Fatal("no payload is owned at the end of the run")
	}
	t.Logf("%d owned payloads in %d size classes; %d relays, %d suppressions, %d salvage requests",
		len(owned), len(classes), counts[EvAuxRelayed], counts[EvAuxSuppressed], counts[EvSalvageReq])

	pool := cell.Channel.Buffers()
	for c := range classes {
		got := map[*byte]bool{}
		for range 300 {
			p := unsafe.SliceData(pool.Get(c))
			if what, ok := owned[p]; ok {
				t.Fatalf("the pool hands out a buffer still owned by %s", what)
			}
			if got[p] {
				t.Fatalf("the pool hands out one %d-byte buffer twice", c)
			}
			got[p] = true
		}
	}
}
