package mac

import (
	"fmt"
	"testing"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// decodeMark is what a probe handler writes into a frame's Seq once it has
// counted it. Handlers must not write to a frame; the probes below do, on
// purpose, because a mark that survives to the next receiver is the proof
// that the two were handed one decode, and a fresh decode always clears it.
const decodeMark = ^uint32(0)

// cell12 is a paper-sized cell on perfect links: twelve MACs in range of
// one another, so each transmission reaches the other eleven.
type cell12 struct {
	k       *sim.Kernel
	ch      *radio.Channel
	macs    []*MAC
	beacons []*frame.Frame // what each MAC sends: a beacon reporting its eleven peers
	upcalls int
	decodes int // upcalls that found the frame unmarked (see decodeMark)
}

func newCell12() *cell12 {
	k := sim.NewKernel(27)
	c := &cell12{k: k, ch: perfectChannel(k)}
	count := HandlerFunc(func(f *frame.Frame, _ radio.RxInfo) {
		c.upcalls++
		if f.Seq != decodeMark {
			c.decodes++
			f.Seq = decodeMark
		}
	})
	for i := 0; i < 12; i++ {
		m := New(k, c.ch, fmt.Sprint("r", i), mobility.Fixed{X: float64(10 * i)})
		m.SetHandler(count)
		c.macs = append(c.macs, m)
	}
	for _, m := range c.macs {
		body := &frame.Beacon{Anchor: frame.None, PrevAnchor: frame.None}
		for _, peer := range c.macs {
			if peer != m {
				body.Probs = append(body.Probs, frame.ProbEntry{From: peer.Addr(), To: m.Addr(), Prob: 0.5})
			}
		}
		c.beacons = append(c.beacons, &frame.Frame{Type: frame.TypeBeacon, Src: m.Addr(),
			Dst: frame.Broadcast, Beacon: body})
	}
	return c
}

// send puts MAC i%12's beacon on the air and runs the cell until it is idle.
func (c *cell12) send(i int) {
	c.macs[i%12].Send(c.beacons[i%12])
	c.k.Run()
}

// TestTransmissionDecodesOnce holds the receive path to Channel.Decode's
// contract on a 12-radio cell: every receiver of a transmission is handed
// one decode — the same frame, a mark written by the first receiver's
// handler seen by the ten after it — and the next transmission is decoded
// afresh, even when the pool hands it the same buffer, and so is a call
// outside any completion on that buffer. A receiver called directly,
// mid-completion, with other bytes gets those bytes, in a frame of their
// own, and the transmission's later receivers still get the shared one. A
// corrupted image is a decode error at every receiver.
func TestTransmissionDecodesOnce(t *testing.T) {
	c := newCell12()
	sender := c.macs[0]
	var (
		frames []*frame.Frame
		seqs   []uint32
		bufs   []*byte
		lent   []byte
	)
	for _, m := range c.macs[1:] {
		inner := m.Receiver()
		c.ch.SetReceiver(m.ID(), radio.ReceiverFunc(func(p []byte, info radio.RxInfo) {
			bufs, lent = append(bufs, &p[0]), p
			inner.RadioReceive(p, info)
		}))
		m.SetHandler(HandlerFunc(func(f *frame.Frame, _ radio.RxInfo) {
			frames, seqs = append(frames, f), append(seqs, f.Seq)
			f.Seq = decodeMark
		}))
	}
	// Raw images straight onto the channel: the pool then hands each
	// transmission's payload copy the buffer the one before returned.
	image := func(seq uint32) []byte {
		b, err := dataFrame(sender.Addr(), seq, 100).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var prev *byte
	for seq := uint32(1); seq <= 2; seq++ {
		frames, seqs, bufs = frames[:0], seqs[:0], bufs[:0]
		c.ch.Broadcast(sender.ID(), image(seq), nil)
		c.k.Run()
		if len(frames) != 11 {
			t.Fatalf("transmission %d reached %d receivers, want 11", seq, len(frames))
		}
		if seq == 2 && bufs[0] != prev {
			t.Fatal("the second transmission got another buffer: the pool no longer exercises a reused key")
		}
		prev = bufs[0]
		for i := range frames {
			if frames[i] != frames[0] || bufs[i] != bufs[0] {
				t.Fatalf("transmission %d: receiver %d was handed another frame or buffer than the first", seq, i)
			}
			want := decodeMark
			if i == 0 {
				want = seq
			}
			if seqs[i] != want {
				t.Errorf("transmission %d: receiver %d read seq %#x, want %#x", seq, i, seqs[i], want)
			}
		}
	}

	// After the completion the buffer is the pool's again. A call outside
	// any completion that hands over those very bytes, rewritten, decodes
	// them.
	copy(lent, image(5))
	seqs = seqs[:0]
	c.macs[1].Receiver().RadioReceive(lent, radio.RxInfo{})
	if len(seqs) != 1 || seqs[0] != 5 {
		t.Errorf("a call outside a completion on the recycled buffer read seqs %x, want [5]", seqs)
	}

	// Mid-completion, the sixth receiver's wrapper hands the eleventh's MAC
	// other bytes of the same length before its own upcall. They decode
	// into a frame of their own, and the transmission's later receivers
	// still share its first decode.
	other := image(77)
	direct, last := c.macs[6], c.macs[11]
	inner := direct.Receiver()
	c.ch.SetReceiver(direct.ID(), radio.ReceiverFunc(func(p []byte, info radio.RxInfo) {
		last.Receiver().RadioReceive(other, info)
		inner.RadioReceive(p, info)
	}))
	frames, seqs = frames[:0], seqs[:0]
	c.ch.Broadcast(sender.ID(), image(3), nil)
	c.k.Run()
	want := []uint32{3, decodeMark, decodeMark, decodeMark, decodeMark, 77}
	for range 6 {
		want = append(want, decodeMark)
	}
	if fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Errorf("upcalls read seqs %x, want %x", seqs, want)
	}
	for i, f := range frames {
		if shared := i != 5; (f == frames[0]) != shared {
			t.Errorf("upcall %d: frame shared with the first receiver's is %v, want %v", i, !shared, shared)
		}
	}

	// A corrupted image: every receiver that got it counts a decode error.
	bad := image(4)
	bad[20] ^= 0xff
	before := make([]int, len(c.macs))
	for i, m := range c.macs {
		before[i] = m.Stats().DecodeErrors
	}
	c.ch.Broadcast(sender.ID(), bad, nil)
	c.k.Run()
	for i, m := range c.macs[1:] {
		if n := m.Stats().DecodeErrors - before[i+1]; n != 1 {
			t.Errorf("receiver %d counted %d decode errors for the corrupted image, want 1", i+1, n)
		}
	}
	if n := sender.Stats().DecodeErrors - before[0]; n != 0 {
		t.Errorf("the sender counted %d decode errors, want 0", n)
	}
}

// TestMACReceiveAllocatesNothing is BenchmarkMACCell12's 0 allocs/op held
// as a test: once warm, a transmission on the 12-radio cell — marshal,
// broadcast, the one decode, eleven upcalls — allocates nothing, and is
// decoded once.
func TestMACReceiveAllocatesNothing(t *testing.T) {
	c := newCell12()
	i := 0
	round := func() {
		c.send(i)
		i++
	}
	for range 24 {
		round()
	}
	upcalls, decodes := c.upcalls, c.decodes
	if allocs := testing.AllocsPerRun(120, round); allocs != 0 {
		t.Errorf("a warm transmission on the 12-radio cell allocates %.1f objects, want 0", allocs)
	}
	if n := c.upcalls - upcalls; n != 11*121 {
		t.Errorf("%d upcalls in 121 transmissions, want %d", n, 11*121)
	}
	if n := c.decodes - decodes; n != 121 {
		t.Errorf("%d decodes in 121 transmissions, want 121", n)
	}
}

// BenchmarkMACCell12 is one transmission through the MAC on a paper-sized
// cell: each of twelve radios in turn sends a beacon reporting its eleven
// peers, and the other eleven receive, decode and dispatch it. It reports
// decodes and upcalls per transmission beside ns/op.
func BenchmarkMACCell12(b *testing.B) {
	c := newCell12()
	for i := range 24 {
		c.send(i)
	}
	upcalls, decodes := c.upcalls, c.decodes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.send(i)
	}
	b.ReportMetric(float64(c.decodes-decodes)/float64(b.N), "decodes/op")
	b.ReportMetric(float64(c.upcalls-upcalls)/float64(b.N), "upcalls/op")
}
