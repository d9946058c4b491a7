package workload

import (
	"encoding/binary"
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/voip"
)

// VoIP is the §5.3.2 session: a bidirectional G.729 stream (20-byte
// packets every 20 ms each way) scored with the E-model and the paper's
// disruption classifier — a 3 s window whose MoS drops below 2 is a
// severe disruption; packets exceeding the 52 ms wireless budget count
// as lost.
type VoIP struct {
	k          *sim.Kernel
	port       Port
	veh        int
	start, end time.Duration
	call       *voip.Call
	buf        []byte // the payload scratch: ports copy what they send
	// up/down mark each packet received, like CBR's slot tables. Packet i
	// is the train's firing i, so it left at exactly start + i·PacketInterval;
	// sent counts the firings so far, and only packets below it have left.
	up, down []bool
	sent     int
	recvN    int // packets scored as received, for Live
	done     bool
	final    Metrics
}

// NewVoIP builds the driver: one packet pair every voip.PacketInterval
// over [start, end).
func NewVoIP(k *sim.Kernel, port Port, veh int, start, end time.Duration) *VoIP {
	length := span(start, end)
	n := int(length / voip.PacketInterval)
	return &VoIP{
		k: k, port: port, veh: veh, start: start, end: end,
		call: voip.NewCall(length),
		buf:  make([]byte, voip.PacketBytes),
		up:   make([]bool, n), down: make([]bool, n),
	}
}

// Start schedules the packet train.
func (v *VoIP) Start() {
	v.k.Every(v.start, voip.PacketInterval, len(v.up), func(i int) {
		v.sent = i + 1
		p := v.payload(i)
		v.port.SendUp(p)
		v.port.SendDown(p)
	})
}

// payload builds one G.729 packet — sequence header, zero body — in the
// driver's scratch buffer.
func (v *VoIP) payload(seq int) []byte {
	binary.BigEndian.PutUint32(v.buf, uint32(seq))
	return v.buf
}

// sentAt is packet seq's send time relative to the call start.
func sentAt(seq int) time.Duration { return time.Duration(seq) * voip.PacketInterval }

// record scores the first receipt of a sent packet.
func (v *VoIP) record(recv []bool, p []byte) {
	if len(p) < 4 {
		return
	}
	seq := int(binary.BigEndian.Uint32(p))
	if seq < 0 || seq >= v.sent || recv[seq] {
		return
	}
	recv[seq] = true
	v.recvN++
	v.call.Add(voip.PacketOutcome{
		SentAt:   sentAt(seq),
		Received: true,
		Delay:    v.k.Now() - v.start - sentAt(seq),
	})
}

// DeliverUp records an upstream packet's arrival at the gateway.
func (v *VoIP) DeliverUp(p []byte) { v.record(v.up, p) }

// DeliverDown records a downstream packet's arrival at the vehicle.
func (v *VoIP) DeliverDown(p []byte) { v.record(v.down, p) }

// Live reports call packets received so far (both directions).
func (v *VoIP) Live() LiveStats { return LiveStats{Delivered: v.recvN} }

// Stop counts sent but unreceived packets as losses and scores the call.
func (v *VoIP) Stop() Metrics {
	if v.done {
		return v.final
	}
	v.done = true
	for _, recv := range [][]bool{v.up, v.down} {
		for seq, ok := range recv[:v.sent] {
			if !ok {
				v.call.Add(voip.PacketOutcome{SentAt: sentAt(seq), Received: false})
			}
		}
	}
	v.final = Metrics{
		App: VoIPKind, Vehicle: v.veh, Span: span(v.start, v.end),
		VoIP: v.call.Score(),
	}
	return v.final
}
