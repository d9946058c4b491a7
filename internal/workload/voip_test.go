package workload

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/voip"
)

// TestVoIPStateIsPerPair pins what a call costs to set up: a six-hour
// session holds one received mark per packet per direction (2 B per
// packet pair) and one count pair per 3 s window, nothing per outcome.
func TestVoIPStateIsPerPair(t *testing.T) {
	const length = 6 * time.Hour
	k := sim.NewKernel(1)
	pairs := int(length / voip.PacketInterval)
	windows := int(length / voip.DefaultWindow)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewVoIP(k, Port{K: k}, 0, 0, length)
	runtime.ReadMemStats(&after)
	if len(d.up) != pairs || len(d.down) != pairs {
		t.Fatalf("received tables %d/%d, want %d each", len(d.up), len(d.down), pairs)
	}
	// Two bytes per pair, two 8-byte counts per window, and 64 KiB for
	// the driver itself and size-class rounding.
	budget := uint64(2*pairs + 16*windows + 64<<10)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("a %v call allocates %d B at setup, want ≤ %d (%.2f B per packet pair)",
			length, got, budget, float64(got)/float64(pairs))
	}
	if got := len(d.call.Windows()); got != windows {
		t.Errorf("call scores %d windows, want %d", got, windows)
	}
}

// TestVoIPCountsEachPacketOnce drives a call whose packets each meet a
// chosen fate — lost, late, on the budget, duplicated — and stops it
// before the train has finished. Every scored window must equal a recount
// from those fates: a packet counts in the window it was sent in, once
// however often it arrives, as lost when it arrived past the 52 ms budget
// or not at all, and not at all when it was never sent.
func TestVoIPCountsEachPacketOnce(t *testing.T) {
	const (
		start = 2 * time.Second
		end   = start + 12*time.Second // four windows, 600 packet pairs
		stop  = start + 9*time.Second - time.Millisecond
	)
	// fate returns the wireless delay of packet seq in one direction
	// (negative: lost) and whether it arrives twice.
	fate := func(up bool, seq int) (time.Duration, bool) {
		switch {
		case seq == 149: // the last packet of the first window
			return -1, false
		case seq == 150 && up: // the first of the second window, late
			return 53 * time.Millisecond, false
		case seq == 151 && !up: // exactly on the budget: it plays
			return voip.WirelessBudget, false
		case seq%7 == 3:
			return 30 * time.Millisecond, true
		case seq%11 == 5:
			return -1, false
		}
		return 10 * time.Millisecond, false
	}
	k := sim.NewKernel(1)
	var d *VoIP
	carry := func(up bool) func([]byte) bool {
		return func(p []byte) bool {
			seq := int(binary.BigEndian.Uint32(p))
			delay, dup := fate(up, seq)
			if delay < 0 {
				return true
			}
			buf := append([]byte(nil), p...)
			deliver := func() {
				if up {
					d.DeliverUp(buf)
				} else {
					d.DeliverDown(buf)
				}
			}
			k.After(delay, deliver)
			if dup {
				k.After(delay+time.Millisecond, deliver)
			}
			return true
		}
	}
	d = NewVoIP(k, Port{K: k, SendUp: carry(true), SendDown: carry(false)}, 0, start, end)
	d.Start()
	k.RunUntil(stop)
	m := d.Stop()

	ws := d.call.Windows()
	if len(ws) != 4 || m.VoIP.Windows != 4 {
		t.Fatalf("scored %d windows (%d in Metrics), want 4", len(ws), m.VoIP.Windows)
	}
	received := 0
	for w := range ws {
		all, lost := 0, 0
		for seq := 0; seq < 600; seq++ {
			sent := start + time.Duration(seq)*voip.PacketInterval
			if sent > stop || (sent-start)/voip.DefaultWindow != time.Duration(w) {
				continue
			}
			for _, up := range []bool{true, false} {
				all++
				delay, _ := fate(up, seq)
				if delay >= 0 && sent+delay <= stop {
					received++
				}
				if delay < 0 || delay > voip.WirelessBudget || sent+delay > stop {
					lost++
				}
			}
		}
		e := 1.0
		if all > 0 {
			e = float64(lost) / float64(all)
		}
		if ws[w].Packets != all || ws[w].LossRate != e {
			t.Errorf("window %d: %d packets, loss %v; recount %d packets, %d lost",
				w, ws[w].Packets, ws[w].LossRate, all, lost)
		}
	}
	if got := d.Live().Delivered; got != received {
		t.Errorf("Live counts %d receipts, recount %d", got, received)
	}
}
