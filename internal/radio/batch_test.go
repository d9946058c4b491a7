package radio

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// A transmission is one kernel event: its receptions complete in its txEnd
// (Broadcast). These tests pin the event count, the order at the end
// instant against every other event there, and the one payload copy.

// cell12 attaches twelve fixed radios 20 m apart, all within range of each
// other, every one handing its upcalls to recv.
func cell12(c *Channel, recv Receiver) {
	for i := 0; i < 12; i++ {
		c.Attach(fmt.Sprint(i), mobility.Fixed{X: float64(i) * 20}, recv)
	}
}

// TestTransmissionIsOneEvent: on a 12-radio cell a Broadcast raises the
// kernel's pending count by exactly one and running to the end of its
// airtime dispatches exactly one event, whether none, some or all of the
// eleven receivers survive.
func TestTransmissionIsOneEvent(t *testing.T) {
	seen := map[int]bool{}
	for _, p := range []float64{0, 0.5, 1} {
		k := sim.NewKernel(31)
		c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(p) })
		got := 0
		cell12(c, ReceiverFunc(func([]byte, RxInfo) { got++ }))
		for step := 0; step < 60; step++ {
			pending, ran, before := k.Pending(), k.EventsRun(), got
			end := k.Now() + c.Broadcast(NodeID(step%12), make([]byte, 100), nil)
			if k.Pending() != pending+1 {
				t.Fatalf("p=%v step %d: Broadcast raised Pending %d → %d, want +1", p, step, pending, k.Pending())
			}
			k.RunUntil(end)
			if n := k.EventsRun() - ran; n != 1 {
				t.Fatalf("p=%v step %d: %d events dispatched to the end of airtime, want 1", p, step, n)
			}
			seen[got-before] = true
		}
	}
	if !seen[0] || !seen[11] || len(seen) < 4 {
		t.Errorf("survivor counts seen %v: want none, all eleven and some in between", seen)
	}
}

// TestSameInstantOrder pins, for a fixed seed, the sequence at a
// transmission's end instant. s broadcasts to r1, r2 and r3; an event was
// scheduled at exactly that instant before the broadcast; r1 answers from
// its upcall with a Broadcast of its own and an After(0), and r2 answers
// too. The event scheduled first runs before the first upcall; r1's After(0)
// runs after s's txDone; and r2 and r3, completed after r1 answered, find
// the locks and ok flags that one event per reception gave them — locked on
// r1's answer, which r2's own answer then destroys at r2 (half duplex) and
// collides with at s and r3.
func TestSameInstantOrder(t *testing.T) {
	k := sim.NewKernel(41)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(1) })
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	names := []string{"s", "r1", "r2", "r3"}
	lock := func(id NodeID) string {
		if cur := c.nodes[id].cur; cur != nil && cur.end > k.Now() {
			return fmt.Sprintf("locked until %v ok=%v", cur.end, cur.ok)
		}
		return "free"
	}
	done := func(name string) sim.Handler { return sim.Event(func() { note("txDone %s", name) }) }
	for i, name := range names {
		id := NodeID(i)
		c.Attach(name, mobility.Fixed{X: float64(i) * 10}, ReceiverFunc(func(p []byte, info RxInfo) {
			note("%s <- %s %q, %s", name, names[info.From], p, lock(id))
			if info.From != 0 {
				return
			}
			switch name {
			case "r1":
				c.Broadcast(id, []byte("r1 answers"), done("r1"))
				k.After(0, func() { note("r1's After(0)") })
			case "r2":
				c.Broadcast(id, []byte("r2 answers"), done("r2"))
			}
		}))
	}
	payload := []byte("s speaks")
	end := Airtime(len(payload))
	k.At(end, func() { note("scheduled at end before the broadcast") })
	c.Broadcast(0, payload, done("s"))
	k.Run()

	want := []string{
		"528µs scheduled at end before the broadcast",
		`528µs r1 <- s "s speaks", free`,
		`528µs r2 <- s "s speaks", locked until 1.072ms ok=true`,
		`528µs r3 <- s "s speaks", locked until 1.072ms ok=false`,
		"528µs txDone s",
		"528µs r1's After(0)",
		"1.072ms txDone r1",
		"1.072ms txDone r2",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("same-instant sequence:\n  got  %q\n  want %q", log, want)
	}
	if st := c.Stats(); st.Deliveries != 3 || st.HalfDuplex != 2 || st.Collisions != 4 {
		t.Errorf("stats %+v, want 3 deliveries, 2 half-duplex losses and 4 collisions", st)
	}
}

// TestReceiversShareOnePayload: every receiver of a frame is handed the
// same bytes — one pooled copy of the sender's, not the sender's slice — and
// that buffer is back in the channel's pool by the time txDone runs.
func TestReceiversShareOnePayload(t *testing.T) {
	k := sim.NewKernel(32)
	c := perfectChannel(k)
	payload := []byte("one copy for every receiver")
	var shared []*byte
	cell12(c, ReceiverFunc(func(p []byte, _ RxInfo) {
		if string(p) != string(payload) {
			t.Errorf("receiver handed %q, sent %q", p, payload)
		}
		shared = append(shared, unsafe.SliceData(p))
	}))
	back := false
	c.Broadcast(0, payload, sim.Event(func() {
		b := c.Buffers().Get(len(payload))
		back = len(shared) > 0 && unsafe.SliceData(b) == shared[0]
		c.Buffers().Put(b)
	}))
	k.Run()
	if len(shared) != 11 {
		t.Fatalf("%d upcalls, want 11", len(shared))
	}
	for i, p := range shared {
		if p != shared[0] {
			t.Errorf("upcall %d was handed another array than upcall 0", i)
		}
	}
	if shared[0] == unsafe.SliceData(payload) {
		t.Error("receivers were handed the sender's own slice, not the channel's copy")
	}
	if !back {
		t.Error("the shared payload was not back in the pool when txDone ran")
	}
}
