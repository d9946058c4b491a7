package mac_test

import (
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// TestReceiversDoNotWritePayload holds the receive path to radio.Receiver's
// contract: the payload is shared by every receiver of the frame, so an
// upcall that wrote into it would hand every later receiver of the frame a
// different one. A VanLAN cell runs ViFi with auxiliary relaying and traffic
// both ways for 30 simulated seconds, every radio's receiver wrapped: the
// wrapper checksums the payload before and after the MAC's upcall — decode,
// the protocol's handler and whatever it sends in answer — and fails on any
// change.
func TestReceiversDoNotWritePayload(t *testing.T) {
	k := sim.NewKernel(26)
	cell := core.NewVanLANCell(k, core.DefaultCellOptions())
	upcalls := 0
	for _, n := range slices.Concat(cell.BSes, cell.Vehicles) {
		m := n.MAC()
		inner := m.Receiver()
		cell.Channel.SetReceiver(m.ID(), radio.ReceiverFunc(func(p []byte, info radio.RxInfo) {
			sum := crc32.ChecksumIEEE(p)
			inner.RadioReceive(p, info)
			if crc32.ChecksumIEEE(p) != sum {
				t.Fatalf("%s's upcall at %v wrote into the shared payload of a frame from %s",
					cell.Channel.NodeName(m.ID()), info.At, cell.Channel.NodeName(info.From))
			}
			upcalls++
		}))
	}
	veh := cell.Vehicle.Addr()
	payload := make([]byte, 200)
	for at := time.Second; at < 30*time.Second; at += 20 * time.Millisecond {
		k.At(at, func() {
			cell.Gateway.Send(veh, payload)
			cell.Vehicle.SendData(payload)
		})
	}
	k.RunUntil(30 * time.Second)

	var relayed uint64
	for _, bs := range cell.BSes {
		relayed += bs.EventCount(core.EvAuxRelayed)
	}
	if upcalls == 0 || relayed == 0 {
		t.Fatalf("%d upcalls, %d auxiliary relays: the run did not exercise the relaying receive path", upcalls, relayed)
	}
	t.Logf("%d upcalls checked, %d auxiliary relays", upcalls, relayed)
}
