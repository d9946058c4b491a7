package backplane

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

type delivery struct {
	from    uint16
	payload []byte
	at      time.Duration
}

func collect(k *sim.Kernel, out *[]delivery) Handler {
	return func(from uint16, payload []byte) {
		// The payload is pool-owned scratch valid only during the call:
		// copy to retain (the Handler ownership contract).
		*out = append(*out, delivery{from, append([]byte(nil), payload...), k.Now()})
	}
}

func TestDeliveryAndLatency(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))

	payload := []byte("salvage me")
	if !n.Send(1, 2, payload) {
		t.Fatal("send rejected")
	}
	k.Run()

	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if got[0].from != 1 || !bytes.Equal(got[0].payload, payload) {
		t.Errorf("delivery = %+v", got[0])
	}
	// Latency = 2×serialization + 2×8ms access delay + 4ms core.
	ser := time.Duration(float64(len(payload)*8) / 5e6 * float64(time.Second))
	want := 2*ser + 2*8*time.Millisecond + 4*time.Millisecond
	if got[0].at != want {
		t.Errorf("latency = %v, want %v", got[0].at, want)
	}
}

func TestPayloadCopied(t *testing.T) {
	k := sim.NewKernel(2)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	buf := []byte("abc")
	n.Send(1, 2, buf)
	buf[0] = 'Z'
	k.Run()
	if string(got[0].payload) != "abc" {
		t.Errorf("payload aliased: %q", got[0].payload)
	}
}

func TestUnknownAddresses(t *testing.T) {
	k := sim.NewKernel(3)
	n := New(k, DefaultConfig())
	n.Attach(1, nil)
	if n.Send(1, 99, []byte("x")) {
		t.Error("send to unknown address accepted")
	}
	if n.Send(99, 1, []byte("x")) {
		t.Error("send from unknown address accepted")
	}
	if n.Stats().Sent != 0 {
		t.Error("unknown-address sends counted")
	}
}

func TestSerializationQueuesBackToBack(t *testing.T) {
	// At 5 Mbps a 10 kB message takes 16 ms to serialize; ten of them
	// sent at once must arrive spaced by ≥ serialization time.
	k := sim.NewKernel(4)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	msg := make([]byte, 10000)
	for i := 0; i < 5; i++ {
		if !n.Send(1, 2, msg) {
			t.Fatalf("send %d rejected", i)
		}
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	ser := time.Duration(float64(len(msg)*8) / 5e6 * float64(time.Second))
	for i := 1; i < len(got); i++ {
		gap := got[i].at - got[i-1].at
		if gap < ser-time.Microsecond {
			t.Errorf("messages %d,%d spaced %v < serialization %v", i-1, i, gap, ser)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	k := sim.NewKernel(5)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	msg := make([]byte, 30000) // 64 KiB fits two plus change
	admitted := 0
	for i := 0; i < 6; i++ {
		if n.Send(1, 2, msg) {
			admitted++
		}
	}
	k.Run()
	if admitted != 2 {
		t.Errorf("admitted = %d, want 2", admitted)
	}
	if n.Stats().DroppedQueue != 4 {
		t.Errorf("dropped = %d, want 4", n.Stats().DroppedQueue)
	}
	if len(got) != 2 {
		t.Errorf("delivered = %d, want 2", len(got))
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	k := sim.NewKernel(6)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	msg := make([]byte, 40000) // 64 KiB fits one
	if !n.Send(1, 2, msg) {
		t.Fatal("first send rejected")
	}
	if n.Send(1, 2, msg) {
		t.Fatal("second immediate send should overflow")
	}
	// After the first serializes (64 ms), there is room again.
	k.RunUntil(70 * time.Millisecond)
	if !n.Send(1, 2, msg) {
		t.Fatal("send after drain rejected")
	}
	k.Run()
	if len(got) != 2 {
		t.Errorf("delivered = %d, want 2", len(got))
	}
}

func TestRandomLoss(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := DefaultConfig()
	cfg.Access.Loss = 0.3
	n := New(k, cfg)
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(1, 2, []byte{byte(i)})
	}
	k.Run()
	// P(survive) = 0.7 * 0.7 = 0.49 (up and down legs both lossy).
	frac := float64(len(got)) / total
	if frac < 0.43 || frac > 0.55 {
		t.Errorf("delivery rate = %v, want ≈0.49", frac)
	}
	if n.Stats().DroppedLoss == 0 {
		t.Error("no losses counted")
	}
}

func TestPartition(t *testing.T) {
	k := sim.NewKernel(8)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))

	n.SetDown(2, true)
	n.Send(1, 2, []byte("lost"))
	k.Run()
	if len(got) != 0 {
		t.Fatal("partitioned node received traffic")
	}
	if n.Stats().DroppedDown != 1 {
		t.Errorf("dropped-down = %d, want 1", n.Stats().DroppedDown)
	}

	n.SetDown(2, false)
	n.Send(1, 2, []byte("healed"))
	k.Run()
	if len(got) != 1 || string(got[0].payload) != "healed" {
		t.Errorf("after heal: %+v", got)
	}
}

func TestPartitionMidFlight(t *testing.T) {
	// A node taken down while a message is in flight must not receive it.
	k := sim.NewKernel(9)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	n.Send(1, 2, []byte("in flight"))
	k.After(time.Millisecond, func() { n.SetDown(2, true) })
	k.Run()
	if len(got) != 0 {
		t.Error("mid-flight partition leaked a delivery")
	}
}

func TestBidirectionalIndependentQueues(t *testing.T) {
	// Saturating 1→2 must not slow 2→1.
	k := sim.NewKernel(10)
	n := New(k, DefaultConfig())
	var fwd, rev []delivery
	n.Attach(1, collect(k, &rev))
	n.Attach(2, collect(k, &fwd))
	big := make([]byte, 50000)
	n.Send(1, 2, big)
	n.Send(2, 1, []byte("quick"))
	k.Run()
	if len(fwd) != 1 || len(rev) != 1 {
		t.Fatalf("fwd=%d rev=%d", len(fwd), len(rev))
	}
	if rev[0].at >= fwd[0].at {
		t.Errorf("small reverse message (%v) blocked behind big forward one (%v)",
			rev[0].at, fwd[0].at)
	}
}

func TestStatsAccounting(t *testing.T) {
	k := sim.NewKernel(11)
	n := New(k, DefaultConfig())
	var got []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &got))
	n.Send(1, 2, make([]byte, 100))
	n.Send(1, 2, make([]byte, 200))
	k.Run()
	s := n.Stats()
	if s.Sent != 2 || s.Delivered != 2 {
		t.Errorf("sent/delivered = %d/%d", s.Sent, s.Delivered)
	}
	if s.BytesSent != 300 || s.BytesDelivered != 300 {
		t.Errorf("bytes = %d/%d", s.BytesSent, s.BytesDelivered)
	}
}

// TestLossDrawStability pins the RNG stream-stability contract: Send
// draws exactly two loss coins per admitted message from the sender's
// per-port stream, regardless of loss rates or outcomes, so changing one
// link's loss rate never shifts the coin flips seen by later messages.
// The old short-circuit form (Bool(up) || Bool(down)) consumed one or two
// draws depending on the first outcome; under it, the stream positions
// below diverge.
func TestLossDrawStability(t *testing.T) {
	// Drive 50 Sends under wildly different loss configurations and then
	// sample the sender's stream directly: equal kernel seeds must leave
	// the stream at the identical position whatever was configured.
	position := func(upLoss, downLoss float64) uint64 {
		k := sim.NewKernel(99)
		cfg := DefaultConfig()
		n := New(k, cfg)
		n.Attach(1, nil)
		n.Attach(2, nil)
		n.ports[1].up.spec.Loss = upLoss
		n.ports[2].down.spec.Loss = downLoss
		for i := 0; i < 50; i++ {
			n.Send(1, 2, []byte{byte(i)})
		}
		return n.ports[1].rng.Uint64()
	}
	ref := position(0, 0)
	for _, c := range [][2]float64{{0.9, 0}, {0, 0.9}, {0.5, 0.5}, {1, 1}} {
		if got := position(c[0], c[1]); got != ref {
			t.Errorf("loss config %v shifted the RNG stream: position %d, want %d", c, got, ref)
		}
	}

	// End-to-end: with loss on both legs, delivered message identity must
	// be a pure function of the seed — two identical runs agree exactly.
	run := func() []byte {
		k := sim.NewKernel(7)
		cfg := DefaultConfig()
		cfg.Access.Loss = 0.3
		n := New(k, cfg)
		var ids []byte
		n.Attach(1, nil)
		n.Attach(2, func(from uint16, payload []byte) { ids = append(ids, payload[0]) })
		for i := 0; i < 200; i++ {
			n.Send(1, 2, []byte{byte(i)})
		}
		k.Run()
		return ids
	}
	if !bytes.Equal(run(), run()) {
		t.Error("equal seeds delivered different message sets")
	}
}

// TestSendSteadyStateAllocs guards the DESIGN.md §6 zero-alloc regime:
// once the buffer pool and transit free list are primed, a full
// send-and-deliver cycle allocates nothing.
func TestSendSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(13)
	n := New(k, DefaultConfig())
	delivered := 0
	n.Attach(1, nil)
	n.Attach(2, func(from uint16, payload []byte) { delivered++ })
	payload := make([]byte, 700)
	// Warm the pools.
	for i := 0; i < 8; i++ {
		n.Send(1, 2, payload)
	}
	k.Run()
	avg := testing.AllocsPerRun(100, func() {
		n.Send(1, 2, payload)
		k.Run()
	})
	if avg != 0 {
		t.Errorf("allocs per send+deliver = %v, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}

	// Congestion regime: downlink-queue drops must recycle the payload
	// buffer too, or every drop forces a fresh allocation later.
	k2 := sim.NewKernel(14)
	nd := New(k2, DefaultConfig())
	nd.Attach(1, nil)
	nd.Attach(3, nil)
	nd.Attach(2, func(uint16, []byte) {})
	// A slow downlink fed by two senders: each half of the burst fits its
	// fast uplink, and together they overflow the destination's 64 KiB
	// (the stageArrive drop path).
	nd.ports[2].down.spec.RateBps = 1e4
	big := make([]byte, 20000)
	burst := func() {
		for i := 0; i < 4; i++ { // 80 000 bytes at once: one must drop
			nd.Send(uint16(1+2*(i&1)), 2, big)
		}
		k2.Run()
	}
	burst()
	before := nd.Stats().DroppedQueue
	avg = testing.AllocsPerRun(50, burst)
	if avg != 0 {
		t.Errorf("allocs per congested burst = %v, want 0", avg)
	}
	if nd.Stats().DroppedQueue == before {
		t.Fatal("congestion case never dropped at the queue")
	}
}

func TestReattachReplacesHandler(t *testing.T) {
	k := sim.NewKernel(12)
	n := New(k, DefaultConfig())
	var a, b []delivery
	n.Attach(1, nil)
	n.Attach(2, collect(k, &a))
	n.Attach(2, collect(k, &b))
	n.Send(1, 2, []byte("x"))
	k.Run()
	if len(a) != 0 || len(b) != 1 {
		t.Errorf("handler replacement failed: a=%d b=%d", len(a), len(b))
	}
}

// TestForeignAddress pins what replaced the cross-district exchange: an
// address owned by another district kernel can be partitioned and healed
// harmlessly (fault injection flips every port on every kernel's Net), a
// send to it panics naming both ends rather than vanish, and its presence
// changes nothing between local ports — same coins, same timestamps, same
// stats as the plain Net.
func TestForeignAddress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Access.Loss = 0.3
	run := func(foreign bool) ([]delivery, Stats, *Net) {
		k := sim.NewKernel(13)
		n := New(k, cfg)
		var got []delivery
		n.Attach(1, nil)
		n.Attach(2, collect(k, &got))
		if foreign {
			n.AttachForeign(7)
			n.AttachForeign(40000)
			n.SetDown(7, true)
		}
		for i := 0; i < 80; i++ {
			k.At(time.Duration(i)*17*time.Millisecond, func() { n.Send(1, 2, []byte{byte(i)}) })
		}
		k.Run()
		return got, n.Stats(), n
	}
	plain, plainStats, _ := run(false)
	got, stats, n := run(true)
	if len(plain) == 0 || stats.DroppedLoss == 0 {
		t.Fatalf("%d deliveries, %d lost: the comparison is vacuous", len(plain), stats.DroppedLoss)
	}
	if !reflect.DeepEqual(plain, got) || plainStats != stats {
		t.Errorf("foreign addresses changed local traffic:\nplain   %+v\nforeign %+v", plainStats, stats)
	}
	if n.IsDown(7) {
		t.Error("SetDown on a foreign address took effect")
	}
	n.SetDown(7, false)

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "from 1 to 40000") || !strings.Contains(msg, "district boundary") {
			t.Errorf("send to a foreign address: %q, want a panic naming 1 and 40000", msg)
		}
		if n.Stats() != stats {
			t.Error("the refused send was counted")
		}
	}()
	n.Send(1, 40000, []byte("x"))
}
