package transport

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// pipe is a lossy, delayed datagram channel for unit-testing TCP without
// the full protocol stack.
type pipe struct {
	k     *sim.Kernel
	delay time.Duration
	loss  float64
	rng   *sim.RNG
	out   func([]byte)
	sent  int
}

func newPipe(k *sim.Kernel, delay time.Duration, loss float64, label string) *pipe {
	return &pipe{k: k, delay: delay, loss: loss, rng: k.RNG("pipe", label)}
}

func (p *pipe) send(b []byte) bool {
	p.sent++
	if p.rng.Bool(p.loss) {
		return true
	}
	buf := append([]byte(nil), b...)
	p.k.After(p.delay, func() {
		if p.out != nil {
			p.out(buf)
		}
	})
	return true
}

// runTransfer wires a sender and receiver through two pipes and runs one
// transfer to completion (or the deadline).
func runTransfer(t *testing.T, seed int64, size int, delay time.Duration, loss float64,
	deadline time.Duration) (TransferResult, *Sender, *Receiver) {
	t.Helper()
	k := sim.NewKernel(seed)
	fwd := newPipe(k, delay, loss, "fwd")
	rev := newPipe(k, delay, loss, "rev")
	var result TransferResult
	gotResult := false
	s := NewSender(k, DefaultConfig(), 1, size, fwd.send, func(r TransferResult) {
		result = r
		gotResult = true
	})
	r := NewReceiver(k, 1, rev.send)
	fwd.out = r.Deliver
	rev.out = s.Deliver
	s.Start()
	k.RunUntil(deadline)
	if !gotResult {
		s.Abort()
		k.Run()
	}
	return result, s, r
}

func TestTransferCompletesCleanLink(t *testing.T) {
	res, s, r := runTransfer(t, 1, 10*1024, 10*time.Millisecond, 0, 30*time.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete on a clean link")
	}
	if res.Bytes != 10*1024 {
		t.Errorf("bytes = %d", res.Bytes)
	}
	if r.Received() != 10*1024 {
		t.Errorf("receiver got %d bytes", r.Received())
	}
	if s.Timeouts != 0 {
		t.Errorf("timeouts on clean link: %d", s.Timeouts)
	}
	// 10 KB in MSS=1000 segments with initial cwnd 2 and 20 ms RTT:
	// handshake (1 RTT) + ~3 window rounds ≈ 4–5 RTTs ≈ ≤ 0.2 s.
	if res.Duration > 300*time.Millisecond {
		t.Errorf("clean transfer took %v", res.Duration)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	// Larger transfer: segment count should be ≈ size/MSS with few
	// retransmissions, and duration should reflect exponential window
	// growth rather than one-segment-per-RTT.
	res, s, _ := runTransfer(t, 2, 100*1024, 25*time.Millisecond, 0, 60*time.Second)
	if !res.Completed {
		t.Fatal("transfer did not complete")
	}
	if s.SegmentsSent > 110 {
		t.Errorf("sent %d segments for 100 segments of data", s.SegmentsSent)
	}
	// 100 segments, cwnd doubling from 2: ~6 rounds + handshake at 50 ms
	// RTT ⇒ well under 1 s.
	if res.Duration > time.Second {
		t.Errorf("transfer took %v; slow start broken?", res.Duration)
	}
}

func TestTransferSurvivesLoss(t *testing.T) {
	res, s, _ := runTransfer(t, 3, 10*1024, 10*time.Millisecond, 0.1, 120*time.Second)
	if !res.Completed {
		t.Fatalf("transfer did not complete through 10%% loss (sent %d, timeouts %d)",
			s.SegmentsSent, s.Timeouts)
	}
	if s.Timeouts == 0 && s.FastRetx == 0 {
		t.Error("no recovery events despite loss")
	}
}

func TestHeavyLossSlowsTransfer(t *testing.T) {
	clean, _, _ := runTransfer(t, 4, 10*1024, 10*time.Millisecond, 0, 120*time.Second)
	lossy, _, _ := runTransfer(t, 4, 10*1024, 10*time.Millisecond, 0.25, 120*time.Second)
	if !lossy.Completed {
		t.Skip("transfer did not finish; acceptable under heavy loss")
	}
	if lossy.Duration < clean.Duration*2 {
		t.Errorf("25%% loss barely hurt: %v vs %v", lossy.Duration, clean.Duration)
	}
}

func TestRTOBackoffExponential(t *testing.T) {
	// A dead link: the sender should back off exponentially, not spam.
	k := sim.NewKernel(5)
	s := NewSender(k, DefaultConfig(), 1, 10*1024, func([]byte) bool { return true }, nil)
	s.Start()
	k.RunUntil(30 * time.Second)
	// With RTOInit=1s and doubling: retransmissions at 1,2,4,8,16 s → ≤6
	// transmissions in 30 s (the initial SYN plus ~5 backoffs).
	if s.SegmentsSent > 7 {
		t.Errorf("sent %d segments on a dead link in 30s; backoff broken", s.SegmentsSent)
	}
	if s.Timeouts < 4 {
		t.Errorf("timeouts = %d, want several", s.Timeouts)
	}
}

func TestReceiverReordersOutOfOrder(t *testing.T) {
	k := sim.NewKernel(6)
	var acks [][]byte
	r := NewReceiver(k, 9, func(b []byte) bool { acks = append(acks, b); return true })
	seg := func(seq int, n int) []byte {
		return (&segment{Conn: 9, Seq: uint32(seq), Payload: make([]byte, n)}).marshal()
	}
	r.Deliver(seg(1000, 1000)) // out of order
	if r.Received() != 0 {
		t.Fatalf("received = %d before the gap filled", r.Received())
	}
	r.Deliver(seg(0, 1000)) // fills the gap; both drain
	if r.Received() != 2000 {
		t.Fatalf("received = %d, want 2000", r.Received())
	}
	last, err := parseSegment(acks[len(acks)-1])
	if err != nil || last.Ack != 2000 {
		t.Errorf("last ack = %+v, %v", last, err)
	}
}

func TestReceiverIgnoresWrongConn(t *testing.T) {
	k := sim.NewKernel(7)
	r := NewReceiver(k, 1, func([]byte) bool { return true })
	r.Deliver((&segment{Conn: 2, Seq: 0, Payload: make([]byte, 100)}).marshal())
	if r.Received() != 0 {
		t.Error("segment for another connection accepted")
	}
	r.Deliver([]byte{1, 2, 3})
	if r.Received() != 0 {
		t.Error("garbage accepted")
	}
}

func TestSegmentRoundtrip(t *testing.T) {
	in := &segment{Flags: flagSYN | flagACK, Conn: 77, Seq: 1234, Ack: 5678,
		Payload: []byte("data")}
	out, err := parseSegment(in.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Flags != in.Flags || out.Conn != 77 || out.Seq != 1234 || out.Ack != 5678 ||
		string(out.Payload) != "data" {
		t.Errorf("roundtrip mismatch: %+v", out)
	}
}

// TestParseSegmentZeroCopy pins the DESIGN.md §6 regime on the segment
// decode path: parsing allocates nothing (the payload aliases the input
// buffer), and the out-of-order buffer keeps a parked segment's length,
// not its bytes, so recycling the wire buffer cannot reach it.
func TestParseSegmentZeroCopy(t *testing.T) {
	wire := (&segment{Conn: 9, Seq: 4242, Payload: make([]byte, 1000)}).marshal()
	avg := testing.AllocsPerRun(100, func() {
		seg, err := parseSegment(wire)
		if err != nil || seg.Seq != 4242 {
			t.Fatal("parse failed")
		}
	})
	if avg != 0 {
		t.Errorf("parseSegment allocs = %v, want 0", avg)
	}
	seg, _ := parseSegment(wire)
	if &seg.Payload[0] != &wire[segHeaderLen] {
		t.Error("payload does not alias the wire buffer (copy reintroduced)")
	}

	// Out-of-order retention keeps the length: scribbling on the wire
	// buffer after Deliver returns changes nothing the receiver holds.
	k := sim.NewKernel(77)
	r := NewReceiver(k, 3, func([]byte) bool { return true })
	ooo := (&segment{Conn: 3, Seq: 100, Payload: []byte("precious")}).marshal()
	r.Deliver(ooo)
	for i := range ooo {
		ooo[i] = 0xFF
	}
	if got := r.ooo[100]; got != len("precious") {
		t.Errorf("parked out-of-order segment has length %d, want %d", got, len("precious"))
	}
}
