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
	// Self 1: a three-entry report (with (0, 0)) is folded into the first
	// 64 buckets; a second sender's 255-entry report grows the array three
	// times mid-walk; both reports are folded again over positions the
	// growths moved. A check after each repeat.
	f.Add([]byte{1,
		1, 0, 0, 0, 1, 0, 34, 0, 1, 0, 200, 1, 0, 0, 0, 0,
		4, 1, 0, 0, 0, 1, 0, 5,
		0, 0, 0, 9, 9, 0, 0, 0, 0, 1, 0, 7, 9, 0, 0, 0})
	// Self 2: a 255-entry report grows the array mid-walk, so positions
	// remembered before a growth may now name empty buckets; a member
	// joins at 48 and the report is folded again, its (0, 0) entry's
	// remembered bucket now empty (an empty bucket's key reads 0). Only
	// Report(0) shows a fold there.
	f.Add([]byte{2,
		4, 3, 0, 247,
		0, 3, 0, 0,
		1, 3, 48, 48,
		0, 3, 0, 0})
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

		// Report is compared for every probed id, not only self: a walk
		// skips self's own entries, so a fold into the wrong slot for a
		// pair (x, x) shows in no Get (Get(x, x) is 1) and only in x's
		// report.
		check := func() {
			probe := append([]uint16{42}, fuzzIDTable...) // 42 is never observed
			for _, a := range probe {
				if g, w := dut.Report(a, now), ref.table.Report(a, now); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("Report(%d) at %v =\n%v\nref\n%v", a, now, g, w)
				}
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
// rides in what was padding, with the five flags packed into one byte.
func TestProbSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(probSlot{}); got != 40 {
		t.Errorf("probSlot is %d bytes, want 40", got)
	}
}

// probeLen is the number of buckets a lookup of k visits, its own
// included.
func probeLen(t *testing.T, pt *ProbTable, k uint32) int {
	t.Helper()
	si, ok := pt.find(k)
	if !ok {
		t.Fatalf("key %#x not in the table", k)
	}
	return int((uint32(si)-pt.home(k))&uint32(len(pt.slots)-1)) + 1
}

// TestSlotProbesStayShort pins the bucket hash. Every local pair a node
// holds (x→self) has the same low 16 bits, so a hash that ignored the
// high half would put the whole neighborhood in one probe run; here 10 000
// local and 10 000 gossip pairs (self→x) of one self must each be found a
// bucket or two from home.
func TestSlotProbesStayShort(t *testing.T) {
	const self, n = 7, 10000
	pt := NewProbTable(0.5, 3*time.Second)
	for x := uint16(1000); x < 1000+n; x++ {
		pt.ObserveLocal(x, self, 0.5, time.Second)
		pt.ObserveGossip(self, x, 0.5, time.Second)
	}
	total, longest := 0, 0
	for x := uint16(1000); x < 1000+n; x++ {
		for _, k := range []uint32{slotKey(x, self), slotKey(self, x)} {
			l := probeLen(t, pt, k)
			total += l
			longest = max(longest, l)
		}
	}
	// Measured at 20 000 pairs in 32 768 buckets: mean 1.15, longest 2.
	if mean := float64(total) / (2 * n); mean > 2 || longest > 4 {
		t.Errorf("probes: mean %.2f, longest %d; want mean ≤ 2, longest ≤ 4", mean, longest)
	}
}

// TestWalkSurvivesGrowth folds a sender's report, grows the bucket array
// twice under it with another sender's reports, and folds the first
// report again: every position the walk remembered now names a bucket
// that holds another pair or none, and the walk must notice either. The
// first report leads with two pairs whose home bucket is 0 in 64 buckets
// and 3 in 256, ahead of (0, 0), whose home is always 0: the walk
// remembers (0, 0) at bucket 2, and after the growths bucket 2 is empty —
// its key reads 0, so only the live flag tells it from (0, 0).
func TestWalkSurvivesGrowth(t *testing.T) {
	const self, a, b = 3000, 500, 501
	const stale = 3 * time.Second
	dut := NewProbTable(0.5, stale)
	ref := newRefBeacons(0.5, stale)
	repA := []frame.ProbEntry{{From: 1, To: 174}, {From: 2, To: 314}, {From: 0, To: 0}}
	for i := uint16(0); i < 37; i++ {
		repA = append(repA, frame.ProbEntry{From: a, To: 2000 + i})
	}
	var repB []frame.ProbEntry
	for i := uint16(0); i < 100; i++ {
		repB = append(repB, frame.ProbEntry{From: b, To: 1000 + i})
	}
	now := time.Second
	hear := func(sender uint16, probs []frame.ProbEntry, p float64) {
		for i := range probs {
			probs[i].Prob = p
		}
		dut.observeBeacon(sender, self, false, probs, now)
		ref.hear(sender, self, false, probs, now)
		now += 10 * time.Millisecond
	}
	hear(a, repA, 0.25)
	if len(dut.slots) != 64 {
		t.Fatalf("%d buckets after the first report, want 64", len(dut.slots))
	}
	hear(b, repB[:50], 0.5)
	hear(b, repB, 0.5)
	if len(dut.slots) != 256 {
		t.Fatalf("%d buckets after the second sender, want 256 (two growths)", len(dut.slots))
	}
	r := dut.rec(a)
	if si := dut.memo[r.off+2]; dut.slots[si].flags&live != 0 {
		t.Fatalf("(0, 0)'s remembered bucket %d is live; the setup no longer leaves it empty", si)
	}
	hear(a, repA, 0.75)

	pairs := append(append([]frame.ProbEntry{}, repA...), repB...)
	for _, pe := range pairs {
		if g, w := dut.Get(pe.From, pe.To, now), ref.table.Get(pe.From, pe.To, now); g != w {
			t.Errorf("Get(%d,%d) = %v, ref %v", pe.From, pe.To, g, w)
		}
	}
	// Get(0, 0) is 1 by definition; the value folded into (0, 0) shows in
	// the report of self 0.
	for _, s := range []uint16{0, a, b} {
		if g, w := dut.Report(s, now), ref.table.Report(s, now); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("Report(%d) =\n%v\nref\n%v", s, g, w)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { dut.observeBeacon(a, self, false, repA, now) }); allocs != 0 {
		t.Errorf("the report after the growths allocates %.1f objects, want 0", allocs)
	}
}
