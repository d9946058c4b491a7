package radio

import (
	"math"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

type flagHandler struct{ fired bool }

func (f *flagHandler) OnEvent() { f.fired = true }

func TestSetDownMutesTxAndRx(t *testing.T) {
	k := sim.NewKernel(20)
	c := perfectChannel(k)
	var rxa, rxb collector
	a := c.Attach("a", mobility.Fixed{}, &rxa)
	b := c.Attach("b", mobility.Fixed{X: 10}, &rxb)

	c.SetDown(b)
	if !c.Down(b) {
		t.Fatal("Down(b) false after SetDown")
	}
	air := c.Broadcast(a, []byte("x"), nil)
	if air <= 0 {
		t.Fatal("Broadcast returned no airtime")
	}
	k.Run()
	if len(rxb.frames) != 0 {
		t.Error("down node received a frame")
	}

	// A down transmitter puts nothing on the air but its txDone still fires.
	c.SetDown(a)
	done := &flagHandler{}
	c.Broadcast(a, []byte("y"), done)
	if c.Busy(b) {
		t.Error("muted transmission occupies the medium")
	}
	k.Run()
	if !done.fired {
		t.Error("txDone did not fire for a muted broadcast")
	}
	if len(rxb.frames) != 0 {
		t.Error("muted broadcast delivered a frame")
	}
	if got := c.Stats().Transmissions; got != 1 {
		t.Errorf("muted broadcast counted as transmission: %d, want 1", got)
	}

	// SetUp restores both directions.
	c.SetUp(a)
	c.SetUp(b)
	c.Broadcast(a, []byte("z"), nil)
	k.Run()
	if len(rxb.frames) != 1 {
		t.Errorf("restored link delivered %d frames, want 1", len(rxb.frames))
	}
	if len(rxa.frames) != 0 {
		t.Error("sender heard itself")
	}
}

func TestSetDownVoidsInFlightReception(t *testing.T) {
	k := sim.NewKernel(21)
	c := perfectChannel(k)
	var rx collector
	a := c.Attach("a", mobility.Fixed{}, nil)
	b := c.Attach("b", mobility.Fixed{X: 10}, &rx)
	c.Broadcast(a, make([]byte, 1000), nil)
	// Crash the receiver mid-frame: the frame must not be delivered.
	k.After(Airtime(1000)/2, func() { c.SetDown(b) })
	k.Run()
	if len(rx.frames) != 0 {
		t.Errorf("reception in flight at crash time was delivered: %d frames", len(rx.frames))
	}
}

func TestSetDownBusySensesIdle(t *testing.T) {
	k := sim.NewKernel(22)
	c := perfectChannel(k)
	a := c.Attach("a", mobility.Fixed{}, nil)
	b := c.Attach("b", mobility.Fixed{X: 100}, nil)
	c.Broadcast(a, make([]byte, 1000), nil)
	if !c.Busy(b) {
		t.Fatal("live node should sense the medium busy")
	}
	c.SetDown(b)
	if c.Busy(b) {
		t.Error("down node senses the medium busy")
	}
	c.SetUp(b)
	if !c.Busy(b) {
		t.Error("restored node no longer senses the busy medium")
	}
	k.Run()
}

// receptionLog drives a fixed broadcast schedule from src and returns the
// exact reception trace (source, time) observed at the listening node.
// Fading links make every delivery consume RNG draws, so any stream
// perturbation shows up as a trace difference.
func receptionLog(t *testing.T, maxRangeM float64, downMid NodeID) []heard {
	t.Helper()
	k := sim.NewKernel(23)
	p := DefaultParams()
	p.MaxRangeM = maxRangeM
	c := NewChannel(k, p, nil) // default fading links: loss+noise draws per delivery
	var log []heard
	src := c.Attach("src", mobility.Fixed{}, nil)
	c.Attach("listener", mobility.Fixed{X: 30}, ReceiverFunc(func(_ []byte, info RxInfo) {
		log = append(log, heard{info.From, k.Now()})
	}))
	bystander := c.Attach("bystander", mobility.Fixed{X: 60}, nil)

	const frames = 400
	const gap = 20 * time.Millisecond
	for i := 0; i < frames; i++ {
		at := time.Duration(i) * gap
		k.At(at, func() { c.Broadcast(src, []byte("beacon"), nil) })
	}
	if downMid == bystander {
		// Crash the bystander for a mid-run window.
		k.At(2*time.Second, func() { c.SetDown(bystander) })
		k.At(5*time.Second, func() { c.SetUp(bystander) })
	}
	k.Run()
	return log
}

// TestSetDownStreamStability is the satellite contract: muting a
// bystander must leave every live pair's RNG draws untouched, so the
// listener's reception trace is byte-identical with and without the
// bystander's outage — on a reach-less channel's one-cell grid (the full
// sweep) and on the default cutoff's grid.
func TestSetDownStreamStability(t *testing.T) {
	cases := []struct {
		name      string
		maxRangeM float64
	}{
		{"reach-less", math.Inf(1)},
		{"cutoff", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := receptionLog(t, tc.maxRangeM, NodeID(-1))
			faulted := receptionLog(t, tc.maxRangeM, NodeID(2))
			if len(base) == 0 {
				t.Fatal("baseline run delivered nothing; test is vacuous")
			}
			if len(base) != len(faulted) {
				t.Fatalf("trace length changed: %d vs %d receptions", len(base), len(faulted))
			}
			for i := range base {
				if base[i] != faulted[i] {
					t.Fatalf("reception %d diverged: %+v vs %+v", i, base[i], faulted[i])
				}
			}
		})
	}
}
