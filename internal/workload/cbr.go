package workload

import (
	"encoding/binary"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// CBR is the constant-rate probe session extracted from the original
// fleet workload: one fixed-size packet each way per slot, with per-slot
// delivery outcomes recorded for the link-level session metrics. The
// payload header carries (vehicle, slot) so outcomes survive reordering.
type CBR struct {
	k        *sim.Kernel
	port     Port
	veh      int
	start    time.Duration
	slot     time.Duration
	buf      []byte // the payload scratch: ports copy what they send
	up, down []bool
	// upN/downN mirror the set-bit counts of up/down for Live: maintained
	// on the delivery path so sampling never rescans the slot tables.
	upN, downN int
}

// NewCBR builds the driver: slots cover [start, end).
func NewCBR(k *sim.Kernel, port Port, veh int, start, end time.Duration, slot time.Duration, bytes int) *CBR {
	slots := 0
	if end > start {
		slots = int((end - start) / slot)
	}
	return &CBR{
		k: k, port: port, veh: veh, start: start, slot: slot,
		buf: make([]byte, bytes),
		up:  make([]bool, slots), down: make([]bool, slots),
	}
}

// Slots returns the session's send-opportunity count (per direction).
func (c *CBR) Slots() int { return len(c.up) }

// Start schedules the slots' paired sends as one train.
func (c *CBR) Start() {
	c.k.Every(c.start, c.slot, len(c.up), func(s int) {
		p := c.payload(s)
		c.port.SendUp(p)
		c.port.SendDown(p)
	})
}

// payload builds one probe packet — vehicle index + slot number header,
// zero body — in the driver's scratch buffer.
func (c *CBR) payload(slot int) []byte {
	binary.BigEndian.PutUint16(c.buf, uint16(c.veh))
	binary.BigEndian.PutUint32(c.buf[2:], uint32(slot))
	return c.buf
}

// decode parses a probe header; ok is false for foreign or short packets.
func (c *CBR) decode(p []byte) (slot int, ok bool) {
	if len(p) < 6 || int(binary.BigEndian.Uint16(p)) != c.veh {
		return 0, false
	}
	slot = int(binary.BigEndian.Uint32(p[2:]))
	return slot, slot >= 0 && slot < len(c.up)
}

// DeliverUp marks an upstream slot delivered at the gateway.
func (c *CBR) DeliverUp(p []byte) {
	if s, ok := c.decode(p); ok && !c.up[s] {
		c.up[s] = true
		c.upN++
	}
}

// DeliverDown marks a downstream slot delivered at the vehicle.
func (c *CBR) DeliverDown(p []byte) {
	if s, ok := c.decode(p); ok && !c.down[s] {
		c.down[s] = true
		c.downN++
	}
}

// Live reports slots delivered so far (both directions).
func (c *CBR) Live() LiveStats { return LiveStats{Delivered: c.upN + c.downN} }

// Stop reports the per-slot outcome tables.
func (c *CBR) Stop() Metrics {
	return Metrics{
		App: CBRKind, Vehicle: c.veh, Slot: c.slot,
		Span: time.Duration(len(c.up)) * c.slot,
		Up:   c.up, Down: c.down,
	}
}
