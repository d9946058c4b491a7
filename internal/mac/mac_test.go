package mac

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

func perfectChannel(k *sim.Kernel) *radio.Channel {
	return radio.NewChannel(k, radio.DefaultParams(),
		func(from, to radio.NodeID) radio.LinkModel { return radio.FixedLink(1) })
}

type sink struct {
	frames []*frame.Frame
	infos  []radio.RxInfo
}

// HandleFrame keeps a copy: the frame it is handed is the channel's one
// decode of the transmission, overwritten by a later decode.
func (s *sink) HandleFrame(f *frame.Frame, info radio.RxInfo) {
	c := *f
	c.Payload = append([]byte(nil), f.Payload...)
	if f.Beacon != nil {
		b := *f.Beacon
		b.Aux = append([]uint16(nil), b.Aux...)
		b.Probs = append([]frame.ProbEntry(nil), b.Probs...)
		c.Beacon = &b
	}
	s.frames = append(s.frames, &c)
	s.infos = append(s.infos, info)
}

func dataFrame(src uint16, seq uint32, n int) *frame.Frame {
	return &frame.Frame{Type: frame.TypeData, Src: src, Dst: frame.Broadcast,
		Seq: seq, Payload: make([]byte, n)}
}

func TestSendDeliversDecodedFrame(t *testing.T) {
	k := sim.NewKernel(1)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 50})
	var rx sink
	b.SetHandler(&rx)

	f := dataFrame(a.Addr(), 42, 100)
	if !a.Send(f) {
		t.Fatal("send rejected")
	}
	k.Run()

	if len(rx.frames) != 1 {
		t.Fatalf("received %d frames, want 1", len(rx.frames))
	}
	got := rx.frames[0]
	if got.Seq != 42 || got.Src != a.Addr() || len(got.Payload) != 100 {
		t.Errorf("frame mismatch: %v", got)
	}
	if rx.infos[0].From != a.ID() {
		t.Errorf("rx info from %v, want %v", rx.infos[0].From, a.ID())
	}
	if s := a.Stats(); s.Sent != 1 || s.Enqueued != 1 {
		t.Errorf("sender stats: %+v", s)
	}
}

func TestOneOutstandingFrame(t *testing.T) {
	k := sim.NewKernel(2)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	var rx sink
	b.SetHandler(&rx)

	// Queue 10 frames at once; the MAC must serialize them, never
	// tripping the radio's double-transmit panic.
	for i := 0; i < 10; i++ {
		a.Send(dataFrame(a.Addr(), uint32(i), 500))
	}
	if a.QueueLen() != 9 { // one on the air
		t.Errorf("queue len = %d, want 9", a.QueueLen())
	}
	k.Run()
	if len(rx.frames) != 10 {
		t.Fatalf("received %d frames, want 10", len(rx.frames))
	}
	for i, f := range rx.frames {
		if f.Seq != uint32(i) {
			t.Errorf("frame %d has seq %d (reordered?)", i, f.Seq)
		}
	}
}

func TestQueueCapDropTail(t *testing.T) {
	k := sim.NewKernel(3)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	New(k, ch, "b", mobility.Fixed{X: 10})

	const sent = queueCap + 10
	accepted := 0
	for i := 0; i < sent; i++ {
		if a.Send(dataFrame(a.Addr(), uint32(i), 1000)) {
			accepted++
		}
	}
	// One dequeued to the air immediately, then queueCap queued, rest dropped.
	if accepted != queueCap+1 {
		t.Errorf("accepted %d, want %d", accepted, queueCap+1)
	}
	if s := a.Stats(); s.DroppedFull != sent-queueCap-1 {
		t.Errorf("dropped = %d, want %d", s.DroppedFull, sent-queueCap-1)
	}
}

func TestSendPriorityJumpsQueue(t *testing.T) {
	k := sim.NewKernel(4)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	var rx sink
	b.SetHandler(&rx)

	a.Send(dataFrame(a.Addr(), 1, 500)) // goes on air immediately
	a.Send(dataFrame(a.Addr(), 2, 500)) // queued
	ack := &frame.Frame{Type: frame.TypeAck, Src: a.Addr(), Dst: frame.Broadcast,
		AckSrc: 9, AckSeq: 100}
	a.SendPriority(ack) // must beat seq 2
	k.Run()

	if len(rx.frames) != 3 {
		t.Fatalf("received %d frames", len(rx.frames))
	}
	if rx.frames[1].Type != frame.TypeAck {
		t.Errorf("second frame is %v, want ack", rx.frames[1].Type)
	}
	if rx.frames[2].Seq != 2 {
		t.Errorf("third frame seq = %d, want 2", rx.frames[2].Seq)
	}
}

func TestCarrierSenseDefersAndAvoidsCollision(t *testing.T) {
	k := sim.NewKernel(5)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	c := New(k, ch, "c", mobility.Fixed{X: 20})
	var rx sink
	c.SetHandler(&rx)

	// a starts sending; once its frame is in the air, b wants to send.
	a.Send(dataFrame(a.Addr(), 1, 1000))
	k.After(time.Millisecond, func() { // mid-airtime (~8.5ms for 1000B)
		b.Send(dataFrame(b.Addr(), 2, 1000))
	})
	k.Run()

	if len(rx.frames) != 2 {
		t.Fatalf("c received %d frames, want 2 (no collision)", len(rx.frames))
	}
	if b.Stats().BusyDefers == 0 {
		t.Error("b never deferred to the busy medium")
	}
	if ch.Stats().Collisions != 0 {
		t.Errorf("collisions = %d, want 0", ch.Stats().Collisions)
	}
}

func TestBeaconsPeriodicWithJitter(t *testing.T) {
	k := sim.NewKernel(6)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	var rx sink
	b.SetHandler(&rx)

	n := 0
	a.StartBeacons(func() *frame.Frame {
		n++
		return &frame.Frame{Type: frame.TypeBeacon, Src: a.Addr(), Dst: frame.Broadcast,
			Seq: uint32(n), Beacon: &frame.Beacon{Anchor: frame.None, PrevAnchor: frame.None}}
	})
	k.RunUntil(5 * time.Second)

	// ≈50 beacons in 5 s at 100 ms interval.
	if len(rx.frames) < 45 || len(rx.frames) > 55 {
		t.Errorf("received %d beacons in 5s, want ≈50", len(rx.frames))
	}
	if a.Stats().BeaconsSent != n {
		t.Errorf("BeaconsSent = %d, generator ran %d times", a.Stats().BeaconsSent, n)
	}
	// Inter-beacon spacing stays at the interval.
	for i := 1; i < len(rx.infos); i++ {
		gap := rx.infos[i].At - rx.infos[i-1].At
		if gap < 90*time.Millisecond || gap > 115*time.Millisecond {
			t.Errorf("beacon gap %v at %d", gap, i)
		}
	}
}

func TestBeaconFnNilSkips(t *testing.T) {
	k := sim.NewKernel(7)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	var rx sink
	b.SetHandler(&rx)
	i := 0
	a.StartBeacons(func() *frame.Frame {
		i++
		if i%2 == 0 {
			return nil
		}
		return &frame.Frame{Type: frame.TypeBeacon, Src: a.Addr(), Dst: frame.Broadcast,
			Beacon: &frame.Beacon{Anchor: frame.None, PrevAnchor: frame.None}}
	})
	k.RunUntil(time.Second)
	if len(rx.frames) != (i+1)/2 {
		t.Errorf("received %d beacons, generator produced %d", len(rx.frames), (i+1)/2)
	}
}

func TestDecodeErrorCounted(t *testing.T) {
	k := sim.NewKernel(8)
	ch := perfectChannel(k)
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	var rx sink
	b.SetHandler(&rx)
	// Raw garbage straight onto the channel, bypassing a MAC.
	g := ch.Attach("garbage", mobility.Fixed{}, nil)
	ch.Broadcast(g, []byte{1, 2, 3, 4, 5}, nil)
	k.Run()
	if len(rx.frames) != 0 {
		t.Error("garbage decoded as a frame")
	}
	if b.Stats().DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", b.Stats().DecodeErrors)
	}
}

func TestTwoWayTrafficNoDeadlock(t *testing.T) {
	k := sim.NewKernel(9)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	var rxa, rxb sink
	a.SetHandler(&rxa)
	b.SetHandler(&rxb)

	for i := 0; i < 20; i++ {
		i := i
		k.At(time.Duration(i)*10*time.Millisecond, func() {
			a.Send(dataFrame(a.Addr(), uint32(i), 200))
			b.Send(dataFrame(b.Addr(), uint32(i), 200))
		})
	}
	k.Run()
	// With carrier sense both directions should mostly get through.
	if len(rxa.frames) < 15 || len(rxb.frames) < 15 {
		t.Errorf("deliveries a=%d b=%d, want ≥15 each", len(rxa.frames), len(rxb.frames))
	}
}

func TestStatsByType(t *testing.T) {
	k := sim.NewKernel(10)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	New(k, ch, "b", mobility.Fixed{X: 10})
	a.Send(dataFrame(a.Addr(), 1, 10))
	a.Send(&frame.Frame{Type: frame.TypeAck, Src: a.Addr(), Dst: frame.Broadcast, AckSrc: 1, AckSeq: 1})
	k.Run()
	s := a.Stats()
	if s.SentByType[frame.TypeData] != 1 || s.SentByType[frame.TypeAck] != 1 {
		t.Errorf("per-type stats: %+v", s.SentByType)
	}
}

// TestReceivePathSteadyStateAllocs is the receive path's end-to-end guard:
// two MACs exchanging 40-entry beacons and 500-byte data frames — marshal
// into pooled buffers, broadcast, pooled reception records, the channel's
// decode, upcall — allocate nothing once warm.
func TestReceivePathSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(11)
	ch := perfectChannel(k)
	a := New(k, ch, "a", mobility.Fixed{})
	b := New(k, ch, "b", mobility.Fixed{X: 10})
	received := 0
	count := HandlerFunc(func(f *frame.Frame, _ radio.RxInfo) { received += len(f.Payload) + 1 })
	a.SetHandler(count)
	b.SetHandler(count)
	for _, m := range []*MAC{a, b} {
		body := &frame.Beacon{Anchor: frame.None, PrevAnchor: frame.None, Aux: []uint16{1, 2}}
		for i := 0; i < 40; i++ {
			body.Probs = append(body.Probs, frame.ProbEntry{From: uint16(i), To: m.Addr(), Prob: 0.5})
		}
		bf := &frame.Frame{Type: frame.TypeBeacon, Src: m.Addr(), Dst: frame.Broadcast, Beacon: body}
		m.StartBeacons(func() *frame.Frame { return bf })
	}
	da, db := dataFrame(a.Addr(), 1, 500), dataFrame(b.Addr(), 1, 500)
	round := func() {
		a.Send(da)
		b.Send(db)
		k.RunUntil(k.Now() + 100*time.Millisecond) // one beacon interval
	}
	for i := 0; i < 20; i++ {
		round()
	}
	before := received
	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Errorf("warm two-MAC exchange allocates %.1f objects per round, want 0", allocs)
	}
	if received == before {
		t.Error("no frame was received while measuring")
	}
}
