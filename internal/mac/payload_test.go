package mac_test

import (
	"bytes"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mac"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
)

// TestReceiversDoNotWritePayload holds the receive path to radio.Receiver's
// and mac.Handler's contracts: the payload and its decoded frame are shared
// by every receiver of the transmission, so an upcall that wrote into either
// would hand every later receiver of it a different frame. A VanLAN cell
// runs ViFi with auxiliary relaying and traffic both ways for 30 simulated
// seconds, every radio wrapped twice. The receiver wrapper checksums the
// payload before and after the MAC's upcall — decode, the protocol's handler
// and whatever it sends in answer — and the handler wrapper re-marshals the
// decoded frame (header, beacon body, payload) before and after the
// protocol's handler; either fails on any change.
func TestReceiversDoNotWritePayload(t *testing.T) {
	k := sim.NewKernel(26)
	vanlan, err := scenario.Preset("vanlan")
	if err != nil {
		t.Fatal(err)
	}
	cell, _, err := scenario.BuildCell(k, vanlan, core.DefaultCellOptions(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	upcalls := 0
	var before, after []byte
	for _, n := range slices.Concat(cell.BSes, cell.Vehicles) {
		m := n.MAC()
		h := m.Handler()
		m.SetHandler(mac.HandlerFunc(func(f *frame.Frame, info radio.RxInfo) {
			var err error
			if before, err = f.AppendTo(before[:0]); err != nil {
				t.Fatal(err)
			}
			h.HandleFrame(f, info)
			if after, err = f.AppendTo(after[:0]); err != nil || !bytes.Equal(before, after) {
				t.Fatalf("%s's handler at %v wrote into the shared decoded %v frame from %s (%v)",
					cell.Channel.NodeName(m.ID()), k.Now(), f.Type, cell.Channel.NodeName(info.From), err)
			}
		}))
		inner := m.Receiver()
		cell.Channel.SetReceiver(m.ID(), radio.ReceiverFunc(func(p []byte, info radio.RxInfo) {
			sum := crc32.ChecksumIEEE(p)
			inner.RadioReceive(p, info)
			if crc32.ChecksumIEEE(p) != sum {
				t.Fatalf("%s's upcall at %v wrote into the shared payload of a frame from %s",
					cell.Channel.NodeName(m.ID()), k.Now(), cell.Channel.NodeName(info.From))
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
