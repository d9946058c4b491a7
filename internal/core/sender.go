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
// index. Both grow on demand up to window samples: most nodes of a large
// deployment never take one.
type delaySampler struct {
	window int
	ring   []time.Duration
	next   int // ring slot the next sample overwrites once the window is full
	sorted []time.Duration
}

func newDelaySampler(window int) *delaySampler {
	return &delaySampler{window: window}
}

func (d *delaySampler) add(v time.Duration) {
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

// allocPkt takes an outPkt from the node's free list (growing only while
// the in-flight window is still being discovered).
func (n *Node) allocPkt() *outPkt {
	if p := n.pktFree; p != nil {
		n.pktFree = p.free
		*p = outPkt{n: n}
		return p
	}
	return &outPkt{n: n}
}

// freePkt recycles a settled packet record and its pooled payload buffer.
func (n *Node) freePkt(p *outPkt) {
	if p.payload != nil {
		n.mac.Buffers().Put(p.payload)
	}
	*p = outPkt{n: n, free: n.pktFree}
	n.pktFree = p
}

// SendData transmits an application payload. On a vehicle it is addressed
// to the current anchor (§4.3: upstream packets are forwarded through the
// anchor); returns false — without consuming a sequence number — when the
// vehicle has no anchor. Basestations use sendDown instead.
func (n *Node) SendData(payload []byte) bool {
	if !n.isVehicle {
		panic("core: SendData on a basestation; use the gateway for downstream traffic")
	}
	if n.anchor == frame.None {
		return false
	}
	n.enqueueData(n.anchor, payload, Up, nil)
	return true
}

// sendDown transmits a downstream payload from an anchor to a vehicle.
// salv links the packet to its salvage-cache entry.
func (n *Node) sendDown(veh uint16, payload []byte, salv *downPkt) {
	n.enqueueData(veh, payload, Down, salv)
}

// enqueueData allocates a sequence number and performs the first
// transmission.
func (n *Node) enqueueData(dst uint16, payload []byte, dir Direction, salv *downPkt) {
	n.nextSeq++
	pkt := n.allocPkt()
	pkt.seq = n.nextSeq
	pkt.dst = dst
	pkt.dir = dir
	pkt.salv = salv
	pkt.payload = n.mac.Buffers().Get(len(payload))
	copy(pkt.payload, payload)
	n.outstanding[pkt.seq] = pkt
	n.pruneOutstanding()
	n.transmit(pkt)
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
	if pkt.acked || pkt.dropped {
		return
	}
	if int(pkt.attempt) >= n.cfg.MaxRetx {
		pkt.dropped = true
		n.emit(EvSrcDrop, pkt.dir, frame.PacketID{Src: n.addr, Seq: pkt.seq}, pkt.attempt, pkt.dst, MediumAir)
		return
	}
	pkt.attempt++
	n.transmit(pkt)
}

// buildBitmap reports which of the eight packets before seq remain
// unacknowledged at this sender (§4.8).
func (n *Node) buildBitmap(seq uint32) uint8 {
	var bm uint8
	for i := 0; i < 8; i++ {
		back := uint32(i + 1)
		if seq <= back {
			break
		}
		if pkt, ok := n.outstanding[seq-back]; ok && !pkt.acked {
			bm |= 1 << i
		}
	}
	return bm
}

// pruneOutstanding drops settled entries far behind the send window so the
// map stays bounded while the bitmap window (8) keeps its history.
func (n *Node) pruneOutstanding() {
	if len(n.outstanding) < 64 {
		return
	}
	for seq, pkt := range n.outstanding {
		if seq+16 < n.nextSeq && (pkt.acked || pkt.dropped) {
			pkt.timer.Stop()
			delete(n.outstanding, seq)
			n.freePkt(pkt)
		}
	}
}
