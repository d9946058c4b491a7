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
	up, down   []voipSent
	recvN      int // packets scored as received, for Live
	done       bool
	final      Metrics
}

// voipSent tracks one direction's packet: whether it was actually sent,
// when it left, and whether its outcome is already recorded. sent is
// explicit — a zero send time is legitimate for sessions starting at
// t=0, so it cannot double as the sentinel.
type voipSent struct {
	at   time.Duration
	sent bool
	done bool
}

// NewVoIP builds the driver: one packet pair every voip.PacketInterval
// over [start, end).
func NewVoIP(k *sim.Kernel, port Port, veh int, start, end time.Duration) *VoIP {
	n := 0
	if end > start {
		n = int((end - start) / voip.PacketInterval)
	}
	return &VoIP{
		k: k, port: port, veh: veh, start: start, end: end,
		call: voip.NewCall(),
		buf:  make([]byte, voip.PacketBytes),
		up:   make([]voipSent, n), down: make([]voipSent, n),
	}
}

// Start schedules the packet train.
func (v *VoIP) Start() {
	v.k.Every(v.start, voip.PacketInterval, len(v.up), func(i int) {
		v.up[i] = voipSent{at: v.k.Now(), sent: true}
		v.down[i] = voipSent{at: v.k.Now(), sent: true}
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

// record scores one received packet against its send record.
func (v *VoIP) record(list []voipSent, p []byte) {
	if len(p) < 4 {
		return
	}
	seq := int(binary.BigEndian.Uint32(p))
	if seq < 0 || seq >= len(list) || list[seq].done {
		return
	}
	list[seq].done = true
	v.recvN++
	now := v.k.Now()
	v.call.Add(voip.PacketOutcome{
		SentAt:   list[seq].at - v.start,
		Received: true,
		Delay:    now - list[seq].at,
	})
}

// DeliverUp records an upstream packet's arrival at the gateway.
func (v *VoIP) DeliverUp(p []byte) { v.record(v.up, p) }

// DeliverDown records a downstream packet's arrival at the vehicle.
func (v *VoIP) DeliverDown(p []byte) { v.record(v.down, p) }

// Live reports call packets received so far (both directions).
func (v *VoIP) Live() LiveStats { return LiveStats{Delivered: v.recvN} }

// Stop counts unreceived packets as losses and scores the call.
func (v *VoIP) Stop() Metrics {
	if v.done {
		return v.final
	}
	v.done = true
	for _, list := range [][]voipSent{v.up, v.down} {
		for _, s := range list {
			if s.sent && !s.done {
				v.call.Add(voip.PacketOutcome{SentAt: s.at - v.start, Received: false})
			}
		}
	}
	length := span(v.start, v.end)
	v.final = Metrics{
		App: VoIPKind, Vehicle: v.veh, Span: length,
		VoIP: v.call.Score(length),
	}
	return v.final
}
