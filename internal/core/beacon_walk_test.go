package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
)

// refBeacons is the beacon ingestion the table's walk replaced, kept as
// the reference: the old handleBeacon's per-entry ObserveGossip loop, the
// old beaconCounter's heard map and first-heard list, and the old
// Node.vehPeers map — over the map-based refProbTable, so nothing of the
// slot layout is shared with the table under test.
type refBeacons struct {
	table     *refProbTable
	heard     map[uint16]int32
	heardList []uint16
	veh       map[uint16]bool
}

func newRefBeacons(alpha float64, stale time.Duration) *refBeacons {
	return &refBeacons{table: newRefProbTable(alpha, stale), heard: map[uint16]int32{}, veh: map[uint16]bool{}}
}

func (b *refBeacons) hear(sender, self uint16, fromVehicle bool, probs []frame.ProbEntry, now time.Duration) {
	n := b.heard[sender]
	if n == 0 {
		b.heardList = append(b.heardList, sender)
	}
	b.heard[sender] = n + 1
	if fromVehicle {
		b.veh[sender] = true
	}
	for _, pe := range probs {
		if pe.To == self {
			continue
		}
		b.table.ObserveGossip(pe.From, pe.To, pe.Prob, now)
	}
}

func (b *refBeacons) flush(self uint16, expected float64, now time.Duration) {
	for _, peer := range b.heardList {
		r := float64(b.heard[peer]) / expected
		if r > 1 {
			r = 1
		}
		b.table.ObserveLocal(peer, self, r, now)
	}
	for _, peer := range b.table.FreshLocalPeers(self, now) {
		if b.heard[peer] == 0 && b.table.Get(peer, self, now) > 0.01 {
			b.table.ObserveLocal(peer, self, 0, now)
		}
	}
	clear(b.heard)
	b.heardList = b.heardList[:0]
}

// beaconOpSize is the byte width of one decoded FuzzBeaconReport op.
const beaconOpSize = 4

// FuzzBeaconReport decodes bytes into beacon sequences from several
// senders, each of which keeps a report list the ops edit between its
// beacons — so a sender repeats itself, gains or loses a member mid-list
// (every later position shifts), reorders, grows to 255 entries, carries
// entries about links into self and the synthetic (self, self) pair — with
// window flushes and cold restarts in between. The table under test
// ingests every beacon through observeBeacon; refBeacons ingests it entry
// by entry. Get for every pair, FreshLocalPeers, Report bytes, the flushed
// ratios (read back through Get) and the vehicle marks must agree.
//
// Op encoding (4 bytes each): [kind, a, b, v]; a selects the sender, b and
// v select IDs, positions, values or time steps (all modulo).
func FuzzBeaconReport(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := sim.NewRNG(9100 + seed)
		ops := []byte{byte(seed)}
		for i := 0; i < 64; i++ {
			ops = append(ops, byte(rng.Intn(10)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		f.Add(ops)
	}
	// Self 1: a 255-entry report, then a member joins at the front (every
	// later position shifts); a vehicle beacon and a plain one from a
	// second sender; (self, self), a swap, a flush; a cold restart; a
	// member leaves mid-list. A check after each step.
	f.Add([]byte{1,
		4, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0,
		1, 0, 37, 0, 0, 0, 0, 7, 9, 0, 0, 0,
		0, 1, 1, 0, 0, 1, 0, 0, 9, 0, 0, 0,
		5, 0, 3, 1, 3, 0, 2, 200, 7, 0, 0, 100, 0, 0, 0, 9, 9, 0, 0, 0,
		8, 0, 0, 0, 0, 0, 0, 11, 9, 0, 0, 0,
		2, 0, 0, 5, 0, 0, 0, 13, 9, 0, 0, 0})
	// Self 3: two senders with overlapping 255-entry reports, one
	// reordered between its beacons, then time moves on without them.
	f.Add([]byte{3,
		4, 0, 0, 0, 4, 1, 0, 5, 0, 0, 0, 0, 0, 1, 1, 0, 9, 0, 0, 0,
		3, 1, 0, 100, 0, 1, 1, 3, 0, 0, 0, 4, 9, 0, 0, 0,
		6, 0, 0, 50, 0, 0, 0, 1, 9, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// One op grows a list to 255 entries, so 256 ops reach every shape;
		// longer inputs only slow the minimizer down (255-entry reports
		// through a map reference) until a 30 s smoke ends mid-minimization.
		if len(data) == 0 || len(data) > 1+256*beaconOpSize {
			return
		}
		const stale, expected = 3 * time.Second, 10.0
		id := func(sel byte) uint16 { return fuzzIDTable[int(sel)%len(fuzzIDTable)] }
		self := id(data[0])
		dut := NewProbTable(0.5, stale)
		ref := newRefBeacons(0.5, stale)
		lists := make([][]frame.ProbEntry, 4) // the senders' current reports
		sender := func(sel byte) uint16 { return id(sel % 4 * 4) }
		now := time.Duration(0)

		check := func() {
			probe := append([]uint16{42}, fuzzIDTable...) // 42 is never observed
			for _, a := range probe {
				for _, b := range probe {
					if g, w := dut.Get(a, b, now), ref.table.Get(a, b, now); g != w {
						t.Fatalf("Get(%d,%d) at %v = %v, ref %v", a, b, now, g, w)
					}
				}
				if g, w := dut.isVehicle(a), ref.veh[a]; g != w {
					t.Fatalf("isVehicle(%d) = %v, ref %v", a, g, w)
				}
				if g, w := dut.heardThisWindow(a), ref.heard[a] > 0; g != w {
					t.Fatalf("heardThisWindow(%d) = %v, ref %v", a, g, w)
				}
			}
			if g, w := dut.FreshLocalPeers(self, now), ref.table.FreshLocalPeers(self, now); !slices.Equal(g, w) {
				t.Fatalf("FreshLocalPeers(%d) at %v = %v, ref %v", self, now, g, w)
			}
			if g, w := dut.Report(self, now), ref.table.Report(self, now); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("Report(%d) at %v =\n%v\nref\n%v", self, now, g, w)
			}
		}
		for i := 1; i+beaconOpSize <= len(data); i += beaconOpSize {
			kind, a, b, v := data[i], data[i+1], data[i+2], data[i+3]
			l := &lists[a%4]
			switch kind % 10 {
			case 0: // a beacon carrying the sender's current list
				probs := *l
				for j := range probs {
					probs[j].Prob = float64((int(v)+j)%256) / 255
				}
				from := sender(a)
				dut.observeBeacon(from, self, b&1 == 1, probs, now)
				ref.hear(from, self, b&1 == 1, probs, now)
			case 1: // a member joins at position v
				*l = slices.Insert(*l, int(v)%(len(*l)+1), frame.ProbEntry{From: id(b), To: id(b / 16)})
			case 2: // a member leaves from position v
				if len(*l) > 0 {
					j := int(v) % len(*l)
					*l = slices.Delete(*l, j, j+1)
				}
			case 3: // a reorder: two positions swap
				if len(*l) > 1 {
					x, y := int(b)%len(*l), int(v)%len(*l)
					(*l)[x], (*l)[y] = (*l)[y], (*l)[x]
				}
			case 4: // the list grows to the wire bound (pairs repeat past 225)
				for len(*l) < 255 {
					j := len(*l) + int(v)
					*l = append(*l, frame.ProbEntry{From: id(byte(j)), To: id(byte(j / len(fuzzIDTable)))})
				}
			case 5: // an entry about a link into self, or (self, self)
				e := frame.ProbEntry{From: id(b), To: self}
				if v&1 == 1 {
					e.From = self
				}
				*l = slices.Insert(*l, int(v)%(len(*l)+1), e)
			case 6:
				now += time.Duration(v) * 10 * time.Millisecond
			case 7: // a probe window closes
				now += time.Duration(v) * 10 * time.Millisecond
				dut.flush(self, expected, now)
				ref.flush(self, expected, now)
			case 8: // a cold restart: both sides start over
				dut = NewProbTable(0.5, stale)
				ref = newRefBeacons(0.5, stale)
			case 9:
				check()
			}
		}
		check()
		now += stale + time.Nanosecond
		check()
	})
}

// TestBeaconIngestAllocatesNothing pins the walk's steady state: once a
// sender's 19-entry report has been folded, every identical report after
// it — and a window flush over the senders heard — allocates nothing.
func TestBeaconIngestAllocatesNothing(t *testing.T) {
	const self = 0
	pt := NewProbTable(0.5, 3*time.Second)
	var probs []frame.ProbEntry
	for i := uint16(1); i <= 9; i++ {
		probs = append(probs, frame.ProbEntry{From: i, To: 100, Prob: 0.5}, frame.ProbEntry{From: 100, To: i, Prob: 0.25})
	}
	probs = append(probs, frame.ProbEntry{From: 100, To: self, Prob: 0.75}) // skipped: about self
	now := time.Second
	for s := uint16(100); s < 104; s++ {
		pt.observeBeacon(s, self, s == 103, probs, now)
	}
	pt.Report(self, now)
	pt.flush(self, 10, now)
	allocs := testing.AllocsPerRun(1000, func() {
		now += time.Millisecond
		pt.observeBeacon(100, self, false, probs, now)
	})
	if allocs != 0 {
		t.Errorf("a repeated report allocates %.1f objects, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		now += 100 * time.Millisecond
		for s := uint16(100); s < 104; s++ {
			pt.observeBeacon(s, self, s == 103, probs, now)
		}
		pt.flush(self, 10, now)
	})
	if allocs != 0 {
		t.Errorf("a window of beacons and its flush allocate %.1f objects, want 0", allocs)
	}
	if !pt.isVehicle(103) || pt.isVehicle(100) {
		t.Error("vehicle marks lost")
	}
}

// TestProbSlotLayout pins the slot at 40 bytes: the key the walk checks
// rides in what was padding, with the six flags packed into one byte.
func TestProbSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(probSlot{}); got != 40 {
		t.Errorf("probSlot is %d bytes, want 40", got)
	}
}
