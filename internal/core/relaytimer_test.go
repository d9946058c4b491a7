package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// relayChain rebuilds, from nothing but the seed, the instants at which the
// basestation addr's relay timer may fire: the schedule an always-running
// §4.4 timer would follow. It is only exact while the node's relay coin
// draws nothing from the shared stream — true in oneAuxCell, where the sole
// auxiliary's relay probability is 1.
func relayChain(seed int64, addr uint16, cfg Config, until time.Duration) []time.Duration {
	r := sim.NewKernel(seed).RNG("core", fmt.Sprint(addr))
	chain := []time.Duration{cfg.RelayCheck + r.Jitter(cfg.RelayCheck)}
	for chain[len(chain)-1] <= until {
		chain = append(chain, chain[len(chain)-1]+cfg.RelayCheck+r.Jitter(cfg.RelayCheck/2))
	}
	return chain
}

// firstAtOrAfter returns the first chain instant ≥ t.
func firstAtOrAfter(chain []time.Duration, t time.Duration) time.Duration {
	return chain[sort.Search(len(chain), func(i int) bool { return chain[i] >= t })]
}

// oneAuxCell is an anchor (bs0), one auxiliary (bs1) and a vehicle the
// anchor never hears: every upstream packet pends at bs1, whose relay
// probability is 1/c ≥ 1 and so flips no coin.
func oneAuxCell(t *testing.T, seed int64, cfg Config, events EventFunc) (*sim.Kernel, *Cell) {
	m := uniformMatrix(3, 0.9)
	m[0][2] = 0.95
	m[1][2] = 0.3
	m[2][0] = 0
	m[2][1] = 1
	return testCell(t, seed, cfg, m, events)
}

// auxDecisions checks every relay decision bs1 emitted against the
// reference chain: a packet overheard at h is decided at the first chain
// instant ≥ h+AckWait, never elsewhere. It returns the decision instants.
func auxDecisions(t *testing.T, seed int64, cfg Config, chain []time.Duration, events []Event) []time.Duration {
	t.Helper()
	heard := map[pendKey]time.Duration{}
	var at []time.Duration
	for _, e := range events {
		if e.Node != 1 {
			continue
		}
		key := pendKey{id: e.ID, attempt: e.Attempt}
		switch e.Kind {
		case EvAuxHeard:
			heard[key] = e.At
		case EvAuxRelayed, EvAuxDeclined:
			h, ok := heard[key]
			if !ok {
				t.Fatalf("seed %d: decision at %v for a packet never heard", seed, e.At)
			}
			if want := firstAtOrAfter(chain, h+cfg.AckWait); e.At != want {
				t.Errorf("seed %d: packet heard at %v decided at %v, want chain instant %v",
					seed, h, e.At, want)
			}
			at = append(at, e.At)
		}
	}
	return at
}

// TestRelayDecisionsFollowTheChain pins the demand-armed relay timer to
// the always-running one it replaced: whatever the arrival pattern —
// bursts, a dormancy of over ten seconds, packets landing on the very
// nanosecond of a chain instant with the timer dormant or armed — every
// decision happens at the instant the periodic timer would have made it.
func TestRelayDecisionsFollowTheChain(t *testing.T) {
	const (
		burst1, quiet1 = 3 * time.Second, 5 * time.Second
		burst2, quiet2 = 16 * time.Second, 18 * time.Second
		last, end      = 30 * time.Second, 31 * time.Second
	)
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 24; seed++ {
		chain := relayChain(seed, 1, cfg, end)
		var events []Event
		k, cell := oneAuxCell(t, seed, cfg, func(e Event) { events = append(events, e) })
		aux := cell.BSes[1]

		// Overheard traffic at arbitrary instants in the two bursts and
		// once more after the second dormancy.
		times := sim.NewRNG(uint64(seed) + 977)
		send := func(at time.Duration) {
			k.At(at, func() { cell.Vehicle.SendData(make([]byte, 64)) })
		}
		for i := 0; i < 40; i++ {
			send(burst1 + time.Duration(times.Float64()*float64(quiet1-burst1)))
			send(burst2 + 100*time.Millisecond + time.Duration(times.Float64()*float64(quiet2-burst2-100*time.Millisecond)))
		}
		send(last + time.Duration(times.Float64()*float64(500*time.Millisecond)))

		// Packets handed to the auxiliary at exactly a chain instant: the
		// first ends the long dormancy, the next two arrive while the timer
		// is armed by the burst around them.
		inject := func(at time.Duration, seq uint32) {
			k.At(at, func() {
				aux.considerPending(&frame.Frame{
					Type: frame.TypeData, Src: cell.Vehicle.Addr(), Dst: cell.Vehicle.Anchor(),
					Seq: seq, FromVehicle: true, Payload: make([]byte, 64),
				})
			})
		}
		wake := firstAtOrAfter(chain, burst2)
		inject(wake, 1<<20)
		inject(firstAtOrAfter(chain, burst2+500*time.Millisecond), 1<<20+1)
		inject(firstAtOrAfter(chain, burst2+time.Second), 1<<20+2)

		k.At(burst2-time.Second, func() {
			if aux.relayArmed || len(aux.pending) != 0 {
				t.Errorf("seed %d: auxiliary still armed %v into a dormancy", seed, burst2-time.Second-quiet1)
			}
		})
		k.RunUntil(end)

		at := auxDecisions(t, seed, cfg, chain, events)
		var inBurst1, afterWake, afterLast bool
		for _, d := range at {
			if d > quiet1+time.Second && d < wake {
				t.Errorf("seed %d: decision at %v inside the dormancy", seed, d)
			}
			inBurst1 = inBurst1 || d < quiet1+time.Second
			afterWake = afterWake || d == firstAtOrAfter(chain, wake+cfg.AckWait)
			afterLast = afterLast || d > last
		}
		if !inBurst1 || !afterWake || !afterLast {
			t.Errorf("seed %d: scenario not exercised (burst %v, wake-up %v, second wake-up %v; %d decisions)",
				seed, inBurst1, afterWake, afterLast, len(at))
		}
	}
}

// TestIdleBasestationsScheduleNoRelayEvents: with nothing overheard the
// relay timer is no kernel event at all, so a cell whose vehicle is out of
// everyone's earshot runs exactly the events of the relay-less baseline.
func TestIdleBasestationsScheduleNoRelayEvents(t *testing.T) {
	m := uniformMatrix(6, 0.9)
	for i := range m {
		m[i][5], m[5][i] = 0, 0
	}
	run := func(relay bool) uint64 {
		cfg := DefaultConfig()
		cfg.EnableRelay = relay
		k, _ := testCell(t, 5, cfg, m, nil)
		k.RunUntil(10 * time.Second)
		return k.EventsRun()
	}
	if with, without := run(true), run(false); with != without {
		t.Errorf("idle cell ran %d events with relaying enabled, %d without", with, without)
	}
}

// TestRelayChainSurvivesColdRestart: a restart empties the pending list
// under an armed timer. That tick fires, decides nothing and goes dormant;
// the chain itself carries on, so the next overheard packet is decided at
// the instant the never-stopped timer of the old design would have used.
func TestRelayChainSurvivesColdRestart(t *testing.T) {
	const seed = 11
	cfg := DefaultConfig()
	chain := relayChain(seed, 1, cfg, 8*time.Second)
	var events []Event
	k, cell := oneAuxCell(t, seed, cfg, func(e Event) { events = append(events, e) })
	aux := cell.BSes[1]

	k.RunUntil(3 * time.Second)
	for i := 0; i < 5; i++ {
		cell.Vehicle.SendData(make([]byte, 64))
	}
	for len(aux.pending) == 0 && k.Now() < 4*time.Second {
		k.Step()
	}
	if len(aux.pending) == 0 || !aux.relayArmed {
		t.Fatalf("auxiliary overheard nothing (pending %d, armed %v); scenario not exercised",
			len(aux.pending), aux.relayArmed)
	}
	tick := aux.relayNext
	aux.ColdRestart()
	if !aux.relayArmed || len(aux.pending) != 0 {
		t.Fatalf("after ColdRestart: armed %v, pending %d; want the one tick still armed over an empty list",
			aux.relayArmed, len(aux.pending))
	}
	// The restarted node knows no vehicle until the next beacon, so what is
	// still on the air does not re-arm it before the tick.
	k.RunUntil(tick)
	if aux.relayArmed {
		t.Errorf("tick at %v found nothing to decide but re-armed", tick)
	}
	if want := firstAtOrAfter(chain, tick+1); aux.relayNext != want {
		t.Errorf("dormant chain stands at %v, want the instant after %v: %v", aux.relayNext, tick, want)
	}

	// Re-learned from beacons, the auxiliary wakes on the chain.
	k.RunUntil(6 * time.Second)
	for i := 0; i < 5; i++ {
		cell.Vehicle.SendData(make([]byte, 64))
	}
	k.RunUntil(8 * time.Second)
	at := auxDecisions(t, seed, cfg, chain, events)
	if len(at) == 0 || at[len(at)-1] < 6*time.Second {
		t.Fatalf("no relay decision on the traffic after the restart: %v", at)
	}
	if at[0] <= tick {
		t.Errorf("decision at %v on state the restart discarded", at[0])
	}
}

// TestCellRejectsNonPositiveRelayTiming: a relay period of zero would never
// advance the chain, and an acknowledgment window of zero would void the
// argument that lets a waking chain skip the instant it ties with.
func TestCellRejectsNonPositiveRelayTiming(t *testing.T) {
	build := func(cfg Config) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		opts := DefaultCellOptions()
		opts.Protocol = cfg
		NewCell(sim.NewKernel(1), opts, []mobility.Mover{mobility.Fixed{}}, mobility.Fixed{X: 50})
		return
	}
	for field, set := range map[string]func(*Config){
		"RelayCheck": func(c *Config) { c.RelayCheck = 0 },
		"AckWait":    func(c *Config) { c.AckWait = -time.Millisecond },
	} {
		cfg := DefaultConfig()
		set(&cfg)
		if msg := build(cfg); !strings.Contains(msg, "Config."+field) {
			t.Errorf("%s: cell built or panicked with %q, want a message naming the field", field, msg)
		}
		cfg.EnableRelay = false
		if msg := build(cfg); msg != "<nil>" {
			t.Errorf("%s without EnableRelay: rejected with %q", field, msg)
		}
	}
}
