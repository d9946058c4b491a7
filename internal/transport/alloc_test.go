package transport

import (
	"testing"

	"github.com/vanlan/vifi/internal/sim"
)

// marshal encodes the segment together with its payload bytes, for tests
// that build segments by hand (the endpoints send zero payloads through
// encodeSegment).
func (s *segment) marshal() []byte {
	b := encodeSegment(nil, s.Flags, s.Conn, s.Seq, s.Ack, len(s.Payload))
	copy(b[segHeaderLen:], s.Payload)
	return b
}

// copyPipe carries datagrams the way a real link does — it keeps its own
// copy of each until it is handed on — in slots allocated up front, so
// the pipe itself allocates nothing.
type copyPipe struct {
	slots   [][]byte
	head, n int
}

func newCopyPipe() *copyPipe {
	p := &copyPipe{slots: make([][]byte, 256)}
	for i := range p.slots {
		p.slots[i] = make([]byte, 0, 2048)
	}
	return p
}

func (p *copyPipe) send(b []byte) bool {
	if p.n == len(p.slots) {
		panic("copyPipe: full")
	}
	i := (p.head + p.n) % len(p.slots)
	p.slots[i] = append(p.slots[i][:0], b...)
	p.n++
	return true
}

func (p *copyPipe) next() []byte {
	b := p.slots[p.head]
	p.head = (p.head + 1) % len(p.slots)
	p.n--
	return b
}

// TestTransferSteadyStateAllocFree guards the mini-TCP data path: once a
// transfer is warm, one data segment into the receiver and the acks back
// into the sender — its pump, its RTO re-arm, the receiver's ack — over
// a pipe that copies every datagram allocate nothing per segment.
func TestTransferSteadyStateAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	fwd, rev := newCopyPipe(), newCopyPipe()
	s := NewSender(k, DefaultConfig(), 1, 1<<30, fwd.send, nil)
	r := NewReceiver(k, 1, rev.send)
	step := func() {
		if fwd.n == 0 {
			t.Fatal("sender has nothing in flight")
		}
		r.Deliver(fwd.next())
		for rev.n > 0 {
			s.Deliver(rev.next())
		}
	}
	s.Start()
	for i := 0; i < 300; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs != 0 {
		t.Errorf("warm transfer allocates %.2f objects per segment, want 0", allocs)
	}
	if r.Received() < 500*DefaultConfig().MSS {
		t.Errorf("receiver holds %d bytes after 800 segments", r.Received())
	}
}
