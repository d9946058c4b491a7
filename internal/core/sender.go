package core

import (
	"slices"
	"time"

	"github.com/vanlan/vifi/internal/frame"
)

// delaySampler tracks recent acknowledgment delays and serves quantiles
// for the adaptive retransmission timer (§4.7: "the source then picks as
// the minimum retransmission time the 99th percentile of measured
// delays"). It holds the window twice — ring in arrival order, to know
// which delay a new one evicts, and sorted ascending, so a quantile is an
// index. Both are carved from one allocation, made at the full window size
// on the first sample: most nodes of a large deployment never take one.
type delaySampler struct {
	window int
	ring   []time.Duration
	next   int // ring slot the next sample overwrites once the window is full
	sorted []time.Duration
}

func newDelaySampler(window int) delaySampler {
	return delaySampler{window: window}
}

func (d *delaySampler) add(v time.Duration) {
	if d.ring == nil {
		buf := make([]time.Duration, 2*d.window)
		d.ring, d.sorted = buf[:0:d.window], buf[d.window:d.window]
	}
	if len(d.ring) < d.window {
		d.ring = append(d.ring, v)
	} else {
		i, _ := slices.BinarySearch(d.sorted, d.ring[d.next])
		d.sorted = slices.Delete(d.sorted, i, i+1)
		d.ring[d.next] = v
		d.next = (d.next + 1) % d.window
	}
	i, _ := slices.BinarySearch(d.sorted, v)
	d.sorted = slices.Insert(d.sorted, i, v)
}

func (d *delaySampler) size() int { return len(d.ring) }

// reset empties the window, keeping its storage.
func (d *delaySampler) reset() {
	d.ring, d.sorted, d.next = d.ring[:0], d.sorted[:0], 0
}

// quantile returns the q-quantile of the window, or 0 when empty.
func (d *delaySampler) quantile(q float64) time.Duration {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	return d.sorted[int(q*float64(n-1))]
}

// retxTimeout computes the current retransmission timer.
func (n *Node) retxTimeout() time.Duration {
	// Require a few samples before trusting the estimate.
	if n.delays.size() < 8 {
		return retxInit
	}
	t := n.delays.quantile(n.cfg.RetxPercentile)
	return min(max(t, retxMin), retxMax)
}

// pktBlock is how many outPkt records one allocation holds.
const pktBlock = 32

// allocPkt takes an outPkt from the node's free list, or carves it off
// the node's current block of pktBlock records while the in-flight window
// is still being discovered.
func (n *Node) allocPkt() *outPkt {
	if p := n.pktFree; p != nil {
		n.pktFree, p.free = p.free, nil // settle left the rest zeroed
		return p
	}
	if len(n.pktSlab) == 0 {
		n.pktSlab = make([]outPkt, pktBlock)
	}
	p := &n.pktSlab[0]
	n.pktSlab = n.pktSlab[1:]
	p.n = n
	return p
}

// settle ends a packet's life at its sender — on ack, on give-up and in
// ColdRestart: its timer stops, it leaves outstanding (so the §4.8 bitmap
// stops naming it), and its payload and record go back to be reused.
func (n *Node) settle(p *outPkt) {
	p.timer.Stop()
	delete(n.outstanding, p.seq)
	n.mac.Buffers().Put(p.payload)
	*p = outPkt{n: n, free: n.pktFree}
	n.pktFree = p
}

// SendData transmits an application payload. On a vehicle it is addressed
// to the current anchor (§4.3: upstream packets are forwarded through the
// anchor); returns false — without consuming a sequence number — when the
// vehicle has no anchor. Basestations send downstream through the gateway
// (handleDownFromInternet) instead.
func (n *Node) SendData(payload []byte) bool {
	if !n.isVehicle {
		panic("core: SendData on a basestation; use the gateway for downstream traffic")
	}
	if n.anchor == frame.None {
		return false
	}
	n.enqueueData(n.anchor, payload, Up)
	return true
}

// enqueueData allocates a sequence number, performs the first
// transmission and returns the sequence number.
func (n *Node) enqueueData(dst uint16, payload []byte, dir Direction) uint32 {
	n.nextSeq++
	pkt := n.allocPkt()
	pkt.seq = n.nextSeq
	pkt.dst = dst
	pkt.dir = dir
	pkt.payload = n.mac.Buffers().Get(len(payload))
	copy(pkt.payload, payload)
	if n.outstanding == nil {
		n.outstanding = map[uint32]*outPkt{}
	}
	n.outstanding[pkt.seq] = pkt
	n.transmit(pkt)
	return pkt.seq
}

// transmit puts one attempt of the packet on the air and arms the
// retransmission (or cleanup) timer.
func (n *Node) transmit(pkt *outPkt) {
	dst := pkt.dst
	if n.isVehicle {
		// Retransmissions chase the current anchor.
		if n.anchor == frame.None {
			// No anchor right now: retry when the timer next fires.
			n.armRetx(pkt)
			return
		}
		dst = n.anchor
		pkt.dst = dst
	}
	f := &n.txFrame
	*f = frame.Frame{
		Type: frame.TypeData, Src: n.addr, Dst: dst,
		Seq: pkt.seq, Attempt: pkt.attempt,
		AckBitmap: n.buildBitmap(pkt.seq), FromVehicle: n.isVehicle,
		Payload: pkt.payload,
	}
	pkt.txAt = n.K.Now()
	n.mac.Send(f)
	n.emit(EvSrcTx, pkt.dir, frame.PacketID{Src: n.addr, Seq: pkt.seq}, pkt.attempt, dst, MediumAir)
	n.armRetx(pkt)
}

// armRetx schedules the packet's next retransmission check. The packet
// record is its own timer event, so re-arming never allocates.
func (n *Node) armRetx(pkt *outPkt) {
	pkt.timer.Stop()
	pkt.timer = n.K.AfterHandler(n.retxTimeout(), pkt)
}

// retxFire retransmits an unacknowledged packet or gives up after
// MaxRetx retransmissions.
func (n *Node) retxFire(pkt *outPkt) {
	if int(pkt.attempt) >= n.cfg.MaxRetx {
		n.emit(EvSrcDrop, pkt.dir, frame.PacketID{Src: n.addr, Seq: pkt.seq}, pkt.attempt, pkt.dst, MediumAir)
		n.settle(pkt)
		return
	}
	pkt.attempt++
	n.transmit(pkt)
}

// buildBitmap reports which of the eight packets before seq are still in
// flight at this sender (§4.8): a packet is in outstanding from its first
// transmission until it is acknowledged or given up.
func (n *Node) buildBitmap(seq uint32) uint8 {
	var bm uint8
	for i := 0; i < 8; i++ {
		back := uint32(i + 1)
		if seq <= back {
			break
		}
		if _, ok := n.outstanding[seq-back]; ok {
			bm |= 1 << i
		}
	}
	return bm
}
