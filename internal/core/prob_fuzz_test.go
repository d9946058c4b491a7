package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// fuzzIDTable maps a selector byte onto an ID population spanning the
// address space, both ends included. (Values and order are fixed: the
// committed corpus encodes selectors into this table.)
var fuzzIDTable = []uint16{
	0, 1, 2, 3, 7, 19, 100, 2046, 2047,
	2048, 2049, 2053, 40000, 65000, 65535,
}

// fuzzOpSize is the fixed byte width of one decoded operation.
const fuzzOpSize = 4

// FuzzProbTable decodes an arbitrary byte stream into a monotone-time
// Observe/Get/FreshLocalPeers/Report sequence, runs it against both the
// incremental table and the map reference, and demands exact agreement.
// The expiry wheels have no dedicated code path here — that is the
// point: any interleaving a regression in lazy expiry could mishandle is
// reachable from bytes, without a hand-written case naming it.
//
// Op encoding (4 bytes each): [kind, a, b, v] where kind selects the
// operation (modulo), a/b select IDs from fuzzIDTable (modulo), and v is
// a value/time byte. Time only ever advances, mirroring the simulation
// clock the table is specified against.
func FuzzProbTable(f *testing.F) {
	// Seed corpus: the property-test generator regimes, re-encoded as op
	// streams, so the fuzzer starts from sequences known to exercise
	// small, large and mixed addresses plus expiry gaps.
	for seed := uint64(0); seed < 6; seed++ {
		rng := sim.NewRNG(7000 + seed)
		var ops []byte
		for i := 0; i < 200; i++ {
			ops = append(ops,
				byte(rng.Intn(6)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		f.Add(ops)
	}
	f.Add([]byte{0, 0, 1, 128, 5, 0, 0, 255, 2, 0, 1, 0}) // observe, big jump, query
	f.Fuzz(func(t *testing.T, data []byte) {
		const stale = 3 * time.Second
		dut := NewProbTable(0.5, stale)
		ref := newRefProbTable(0.5, stale)
		now := time.Duration(0)
		id := func(sel byte) uint16 { return fuzzIDTable[int(sel)%len(fuzzIDTable)] }
		check := func(self uint16) {
			gp, wp := dut.FreshLocalPeers(self, now), ref.FreshLocalPeers(self, now)
			if !slices.Equal(gp, wp) {
				t.Fatalf("FreshLocalPeers(%d) at %v = %v, ref %v", self, now, gp, wp)
			}
			gr, wr := dut.Report(self, now), ref.Report(self, now)
			if fmt.Sprint(gr) != fmt.Sprint(wr) {
				t.Fatalf("Report(%d) at %v =\n%v\nref\n%v", self, now, gr, wr)
			}
		}
		for i := 0; i+fuzzOpSize <= len(data); i += fuzzOpSize {
			kind, a, b, v := data[i], data[i+1], data[i+2], data[i+3]
			switch kind % 6 {
			case 0:
				x := float64(v) / 255
				dut.ObserveLocal(id(a), id(b), x, now)
				ref.ObserveLocal(id(a), id(b), x, now)
			case 1:
				x := float64(v) / 255
				dut.ObserveGossip(id(a), id(b), x, now)
				ref.ObserveGossip(id(a), id(b), x, now)
			case 2:
				if g, w := dut.Get(id(a), id(b), now), ref.Get(id(a), id(b), now); g != w {
					t.Fatalf("Get(%d,%d) at %v = %v, ref %v", id(a), id(b), now, g, w)
				}
			case 3:
				check(id(a))
			case 4:
				// Sub-staleness step: entries age but may stay fresh.
				now += time.Duration(v) * 20 * time.Millisecond
			case 5:
				// Expiry-scale jump: crosses the staleness cutoff when
				// v ≥ 30, so whole fresh sets drain through the wheels.
				now += time.Duration(v) * 100 * time.Millisecond
			}
		}
		// Final full sweep over every ID as self, including never-observed
		// ones, at the final clock and past everyone's staleness horizon.
		for _, self := range fuzzIDTable {
			check(self)
		}
		now += stale + time.Nanosecond
		for _, self := range fuzzIDTable {
			check(self)
		}
	})
}
