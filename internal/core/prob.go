package core

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/vanlan/vifi/internal/frame"
)

// freshAt is the one staleness predicate of the probability table: a
// timestamp recorded at t is fresh against the cutoff epoch (now − stale)
// when it was ever set (≥ 0, −1 means never) and is at or after the
// cutoff — the boundary is inclusive, an estimate exactly `stale` old
// still counts. Get, FreshLocalPeers, Report and the expiry wheels all
// route through this function, so the read paths cannot drift apart (the
// pre-index Report carried its own gossip variant with a redundant
// `>= 0` re-check, which this replaces).
func freshAt(t, cutoff time.Duration) bool { return t >= 0 && t >= cutoff }

// probSlot is one directed reception-probability estimate, stored by
// value in a bucket of the table's open-addressed slot array. The EWMA of
// stats.EWMA is inlined so a slot carries no pointers and observations
// touch exactly one cache line. key is the pair the slot holds (slotKey):
// lookups probe for it, and a beacon walk checks a remembered position
// against it before trusting it. The five flags share one byte so the key
// costs no size: 40 bytes, pinned by TestProbSlotLayout.
//
// The membership flags are owned by the per-self incremental index: for
// a pair (a, b), memL says a is a member of the local fresh set of self b
// and memG says b is a member of the gossip fresh set of self a. A member
// has exactly one record in its set's expiry wheel, filed when it joins
// and re-filed rather than dropped while it stays fresh, so one flag
// covers both. Each directed pair belongs to at most one set of each
// kind, so the flags can live with the timestamps they qualify.
type probSlot struct {
	ewma    float64
	gossip  float64       // last value learned from a beacon
	local   time.Duration // time of last local measurement, -1 = never
	gossipT time.Duration // time of last gossip, -1 = never
	key     uint32        // slotKey(from, to)
	flags   slotFlags
}

// slotFlags are a probSlot's booleans.
type slotFlags uint8

const (
	ewmaOK slotFlags = 1 << iota // ewma holds an observation
	hasG                         // gossip holds a value
	memL                         // member of the local fresh set of self=to
	memG                         // member of the gossip fresh set of self=from
	live                         // the bucket holds a pair (key is valid)
)

// update folds one observation into the slot's EWMA with the exact
// arithmetic of stats.EWMA (first observation initializes).
func (s *probSlot) update(x, alpha float64) {
	if s.flags&ewmaOK == 0 {
		s.ewma = x
		s.flags |= ewmaOK
		return
	}
	s.ewma = alpha*x + (1-alpha)*s.ewma
}

// wheelItem is one lazy-expiry record: the id was fresh until at least
// `at` when it was filed. Refreshes do not re-file (one record per
// member); a popped record whose slot was refreshed since filing is
// re-filed at the true expiry instead of expired.
type wheelItem struct {
	at time.Duration
	id uint16
}

// freshSet is one incrementally maintained fresh-peer set: the sorted
// member list FreshLocalPeers/Report hand out, plus the expiry wheel (a
// binary min-heap on expiry time) that ages members out lazily when a
// query advances past their staleness deadline — no rescans. Membership
// lives as a flag on the probSlot itself (memL or memG).
type freshSet struct {
	members []uint16    // sorted ascending: exactly the currently fresh ids
	wheel   []wheelItem // min-heap on (at, id); one record per member
}

// insertMember adds id to the sorted member list.
func (s *freshSet) insertMember(id uint16) {
	i, ok := slices.BinarySearch(s.members, id)
	if ok {
		return
	}
	s.members = slices.Insert(s.members, i, id)
}

// removeMember deletes id from the sorted member list.
func (s *freshSet) removeMember(id uint16) {
	i, ok := slices.BinarySearch(s.members, id)
	if !ok {
		return
	}
	s.members = slices.Delete(s.members, i, i+1)
}

// pushWheel files an expiry record.
func (s *freshSet) pushWheel(at time.Duration, id uint16) {
	s.wheel = append(s.wheel, wheelItem{at: at, id: id})
	i := len(s.wheel) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wheelLess(s.wheel[i], s.wheel[p]) {
			break
		}
		s.wheel[i], s.wheel[p] = s.wheel[p], s.wheel[i]
		i = p
	}
}

// popWheel removes and returns the earliest record.
func (s *freshSet) popWheel() wheelItem {
	top := s.wheel[0]
	last := len(s.wheel) - 1
	s.wheel[0] = s.wheel[last]
	s.wheel = s.wheel[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s.wheel) && wheelLess(s.wheel[l], s.wheel[min]) {
			min = l
		}
		if r < len(s.wheel) && wheelLess(s.wheel[r], s.wheel[min]) {
			min = r
		}
		if min == i {
			return top
		}
		s.wheel[i], s.wheel[min] = s.wheel[min], s.wheel[i]
		i = min
	}
}

func wheelLess(a, b wheelItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// probIndex is the incremental per-self view of a ProbTable: the fresh
// local peers of self (froms with a fresh estimate of p(from→self)), the
// fresh gossip targets of self (tos with a fresh gossiped p(self→to)),
// and the cached beacon report built from them. Observations maintain the
// sets in O(log members); queries age members out lazily through the
// expiry wheels instead of rescanning the table, so the beacon path costs
// O(peers actually heard recently) — O(neighbors) — not O(population).
type probIndex struct {
	self   uint16
	local  freshSet
	gossip freshSet
	// rep caches the beacon report between queries. It stays valid until
	// something it shows changes: a member joins or leaves a set (expiry
	// included), or a member's value — the EWMA of a local member, the
	// gossip of a gossip member — takes other bits. A repeated beacon that
	// re-folds the values it already carried leaves it valid, so beacons
	// inside a quiet interval reuse it without touching any peer.
	rep   []frame.ProbEntry
	repOK bool
}

// sizeIndex gives both fresh sets of ix, an index that has never had
// room, their first backing as a member of either arrives: room for as
// many members each as the table keeps for beacon senders (cap of recs),
// at least roomPeers, and their wheel records, so the sets are sized once
// for the neighborhood instead of doubling up from empty — by then the
// node has heard its neighbors. The table's own index finds roomPeers
// each in the room; a larger neighborhood, or an extra self's index, gets
// one member array and one wheel array. An index with room is left as it
// is; a set that outgrows its half moves to an array of its own.
func (t *ProbTable) sizeIndex(ix *probIndex) {
	if cap(ix.local.members) != 0 || cap(ix.gossip.members) != 0 {
		return
	}
	n := max(cap(t.recs), roomPeers)
	var m []uint16
	var w []wheelItem
	if n == roomPeers && ix == &t.idx {
		r := t.takeRoom()
		m, w = r.members[:], r.wheel[:]
	} else {
		m, w = make([]uint16, 2*n), make([]wheelItem, 2*n)
	}
	ix.local.members, ix.gossip.members = m[:0:n], m[n:n:2*n]
	ix.local.wheel, ix.gossip.wheel = w[:0:n], w[n:n:2*n]
}

// roomPeers is how many beacon senders a room has space for, and how many
// members each fresh set of its index.
const roomPeers = 8

// probRoom holds the first backing of each lazily grown part of a table,
// at the capacity that part starts with: the first bucket array, the
// beacon state, the fresh sets of the table's own index and its first
// report. A table takes its room at its first touch (takeRoom) — a node's
// from its cell's roomSlab, any other table one of its own — so the first
// use of each part costs a node no allocation of its own, and a table
// that is never touched costs no room. A part that outgrows its room
// moves to an array of its own, leaving its space in the room unused. The
// room holds no pointers, so a slab of them is never scanned.
type probRoom struct {
	slots [64]probSlot
	// The beacon state: senders' keys and records, then heardList's and
	// memo's int32s.
	keys [roomPeers]senderKey
	recs [roomPeers]senderRec
	ints [roomPeers + 64]int32
	// The fresh sets of the table's own index, a half of each array per set.
	members [2 * roomPeers]uint16
	wheel   [2 * roomPeers]wheelItem
	rep     [2 * roomPeers]frame.ProbEntry // a local and a gossip entry per sender
}

// roomSlab hands the tables of a cell's nodes their rooms, carved from one
// slab made at the first touch of any of them and sized by the nodes that
// have no room yet (left), so a cell's rooms take one allocation and none
// is made before the run uses it. A nil *roomSlab gives each table a room
// of its own.
type roomSlab struct {
	free []probRoom
	left int
}

// take returns an empty room.
func (s *roomSlab) take() *probRoom {
	if s == nil {
		return new(probRoom)
	}
	if len(s.free) == 0 {
		s.free = make([]probRoom, max(s.left, 1))
	}
	r := &s.free[0]
	s.free = s.free[1:]
	s.left--
	return r
}

// ProbTable holds a node's view of pairwise reception probabilities
// p(a→b), fed by local beacon counting (authoritative) and by values
// gossiped in peers' beacons (§4.6). Entries age out after the staleness
// window so departed nodes stop influencing relay decisions.
//
// Storage is one pointer-free, open-addressed array of slots, each
// carrying its key from<<16|to: a node's table holds exactly the pairs it
// has observed — its own neighborhood and what neighbors gossip —
// whatever the addresses are, in the table's room until the first growth
// and then in one allocation per growth step, and the slots contain no
// pointers, keeping a million-slot fleet out of garbage-collector scans.
// Steady state never allocates. The aggregate read paths
// (FreshLocalPeers, Report) are served by incremental per-self indexes
// (probIndex) maintained by the observe calls and aged by expiry wheels,
// so their cost follows the node's neighborhood, never the population.
//
// Time must be fed monotonically: observations and queries with a `now`
// earlier than a previous call may miss entries the wheels already aged
// out. The simulation clock satisfies this by construction.
//
// The table is also where a node's beacon reception lands
// (observeBeacon): one by-value record per sender heard holds the
// window's beacon count, the sender's vehicle mark and the slots its last
// report resolved to, so a repeated report is folded without a map probe
// per entry. Beacons are heard by one self per table — the node's own
// address.
//
// Every part of the table starts in its room (probRoom), taken at the
// table's first touch: the bucket array appears with the first pair, the
// beacon state with the first beacon, the fresh sets with their first
// member and the report with the first query — none of them at build.
type ProbTable struct {
	alpha float64
	stale time.Duration
	// slots is the pair store: nil before the first pair, then a
	// power-of-two array of buckets, at most 3/4 live, probed linearly
	// from the bucket the key hashes to (find). No pair is ever removed,
	// so there are no tombstones; a growth rehashes every slot to a new
	// position.
	slots []probSlot
	nLive int32 // live buckets
	shift uint8 // 32 − log2(len(slots)): the hash bits that pick a bucket

	// idx is the per-self incremental index, built (hasIdx) on the first
	// query. A protocol node only ever queries its own address, so the
	// first index lives in the table; additional selves (tests,
	// diagnostics) land in more.
	idx    probIndex
	hasIdx bool
	more   map[uint16]*probIndex

	// The beacon state, backed by the room from the first beacon.
	keys      []senderKey // the senders heard, ascending by address
	recs      []senderRec
	memo      []int32 // bucket positions of the senders' last reports, one region per sender
	heardList []int32 // recs with a nonzero count, in first-heard order

	// room backs every part above at its first capacity; nil until the
	// first touch, when it is taken from src (see probRoom).
	room *probRoom
	src  *roomSlab
}

// senderKey finds a sender's record: keys holds one per sender, sorted by
// address, so a lookup is a binary search over a few cache lines.
type senderKey struct {
	addr uint16
	ri   int32 // position in recs
}

// senderRec is what a table remembers about one beacon sender: this
// probe window's beacon count, whether any of its beacons carried
// FromVehicle, and the memo region [off, off+c) whose first n positions
// hold the buckets the non-self entries of its last report resolved to,
// in report order.
type senderRec struct {
	addr      uint16
	veh       bool
	heard     int32
	off, n, c int32 // memo region: offset, positions filled, positions reserved
}

// NewProbTable creates a table with the given EWMA factor and staleness:
// init on a table of its own. A node embeds its table by value and inits
// it in place instead. Neither allocates more than the table: its room
// comes with its first touch, and in it the bucket array appears with the
// first pair, the beacon state with the first beacon.
func NewProbTable(alpha float64, stale time.Duration) *ProbTable {
	t := new(ProbTable)
	t.init(alpha, stale)
	return t
}

// init empties t in place into a table with the given EWMA factor and
// staleness — the one constructor, which NewProbTable and a node's cold
// restart share. A table that has a room keeps it, emptied: a restarted
// node never takes a second room, and no slot learned before the restart
// survives in it.
func (t *ProbTable) init(alpha float64, stale time.Duration) {
	if t.room != nil {
		*t.room = probRoom{}
	}
	*t = ProbTable{alpha: alpha, stale: stale, room: t.room, src: t.src}
}

// takeRoom returns the table's room, taking it from src on first use.
func (t *ProbTable) takeRoom() *probRoom {
	if t.room == nil {
		t.room = t.src.take()
	}
	return t.room
}

// slotKey packs a directed pair into the slot key.
func slotKey(from, to uint16) uint32 { return uint32(from)<<16 | uint32(to) }

// home is the bucket a lookup of k starts from: the high bits of
// k·⌊2³²/φ⌋, never the low bits of k. A key's low 16 bits are its `to`,
// the same for every local pair x→self a node holds, so a mask of them
// would put a node's whole neighborhood in one probe run
// (TestSlotProbesStayShort).
func (t *ProbTable) home(k uint32) uint32 { return (k * 0x9E3779B1) >> t.shift }

// find returns the bucket of the slot with key k and true, or the empty
// bucket where that slot would go and false. The array must exist.
func (t *ProbTable) find(k uint32) (int32, bool) {
	mask := uint32(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.flags&live == 0 {
			return int32(i), false
		}
		if s.key == k {
			return int32(i), true
		}
	}
}

// peek returns the slot for (from, to) without adding it, or nil when the
// pair has never been observed. The pointer is valid until the next slot
// call.
func (t *ProbTable) peek(from, to uint16) *probSlot {
	if t.slots == nil {
		return nil
	}
	if si, ok := t.find(slotKey(from, to)); ok {
		return &t.slots[si]
	}
	return nil
}

// slot returns the slot for (from, to), adding it on first touch. Growth
// only happens while the neighborhood is still being discovered; steady
// state never allocates. A growth rehashes every slot into a new array,
// so the returned pointer — and any earlier one from peek or slot — is
// valid only until the next slot call; ObserveLocal and ObserveGossip,
// the only holders, finish with theirs before returning.
func (t *ProbTable) slot(from, to uint16) *probSlot {
	return &t.slots[t.slotIndex(slotKey(from, to))]
}

// slotIndex returns the bucket of the slot with key k, adding the slot on
// first touch. An addition that would take the array past load 3/4
// doubles it first, which moves every slot: a bucket position held across
// a slotIndex call is a hint to check against the key, never a truth.
func (t *ProbTable) slotIndex(k uint32) int32 {
	var si int32
	if t.slots != nil {
		var ok bool
		if si, ok = t.find(k); ok {
			return si
		}
	}
	if 4*(t.nLive+1) > 3*int32(len(t.slots)) {
		t.grow()
		si, _ = t.find(k)
	}
	t.slots[si] = probSlot{local: -1, gossipT: -1, key: k, flags: live}
	t.nLive++
	return si
}

// grow doubles the bucket array and rehashes every live slot into it, or
// makes the first one: the room's 64 buckets, 2.5 KB, space for 48 pairs,
// a small neighborhood, before the first growth.
func (t *ProbTable) grow() {
	old := t.slots
	if old == nil {
		t.slots = t.takeRoom().slots[:]
	} else {
		t.slots = make([]probSlot, 2*len(old))
	}
	n := len(t.slots)
	t.shift = uint8(32 - bits.TrailingZeros(uint(n)))
	for i := range old {
		if old[i].flags&live != 0 {
			si, _ := t.find(old[i].key)
			t.slots[si] = old[i]
		}
	}
}

// peekIndex returns the index for self when one exists.
func (t *ProbTable) peekIndex(self uint16) *probIndex {
	if t.hasIdx && t.idx.self == self {
		return &t.idx
	}
	if t.more != nil {
		return t.more[self]
	}
	return nil
}

// IndexOccupancy reports the current member counts of self's incremental
// index: fresh local peers and fresh gossip targets. It is a pure read
// for the observability layer — it neither builds a missing index (a
// node that never queried reads 0/0) nor ages members out, so counts can
// exceed the freshness-accurate FreshLocalPeers by entries the wheels
// have not lazily expired yet (at most one staleness window behind).
func (t *ProbTable) IndexOccupancy(self uint16) (local, gossip int) {
	ix := t.peekIndex(self)
	if ix == nil {
		return 0, 0
	}
	return len(ix.local.members), len(ix.gossip.members)
}

// indexFor returns the index for self, building it on first query with
// one sweep of the stored slots (the only full scan the table ever does
// per self; every later update is incremental).
func (t *ProbTable) indexFor(self uint16, now time.Duration) *probIndex {
	if ix := t.peekIndex(self); ix != nil {
		return ix
	}
	ix := &t.idx
	if t.hasIdx {
		if t.more == nil {
			t.more = map[uint16]*probIndex{}
		}
		ix = new(probIndex)
		t.more[self] = ix
	}
	t.hasIdx = true
	t.buildIndex(ix, self, now)
	return ix
}

// buildIndex seeds ix, an empty index, as self's from the slots already
// stored: entries fresh at build time become members with a wheel record;
// stale entries stay out (a future observation re-adds them).
func (t *ProbTable) buildIndex(ix *probIndex, self uint16, now time.Duration) {
	ix.self = self
	cutoff := now - t.stale
	for si := range t.slots {
		e := &t.slots[si]
		if e.flags&live == 0 {
			continue
		}
		from, to := uint16(e.key>>16), uint16(e.key)
		if to == self && freshAt(e.local, cutoff) {
			e.flags |= memL
			t.sizeIndex(ix)
			ix.local.members = append(ix.local.members, from)
			ix.local.pushWheel(e.local+t.stale, from)
		}
		if from == self && e.flags&hasG != 0 && freshAt(e.gossipT, cutoff) {
			e.flags |= memG
			t.sizeIndex(ix)
			ix.gossip.members = append(ix.gossip.members, to)
			ix.gossip.pushWheel(e.gossipT+t.stale, to)
		}
	}
	// Pairs arrive in bucket order; one sort at build time establishes the
	// invariant the updates maintain. (Wheel pops are ordered by (at,
	// id), a total order over one-record-per-member, so filing order is
	// moot.)
	slices.Sort(ix.local.members)
	slices.Sort(ix.gossip.members)
}

// expireLocal advances self's local wheel to now: filed records past
// their deadline are popped, re-filed when the slot was refreshed since
// filing, and otherwise expired — the member leaves the set and the
// cached report. Amortized O(log members) per expiry, O(1) when nothing
// is due.
func (t *ProbTable) expireLocal(ix *probIndex, now time.Duration) {
	w := &ix.local
	for len(w.wheel) > 0 && w.wheel[0].at < now {
		it := w.popWheel()
		e := t.peek(it.id, ix.self) // member ⇒ slot exists
		if at := e.local + t.stale; at >= now {
			w.pushWheel(at, it.id) // refreshed since filing
			continue
		}
		e.flags &^= memL
		w.removeMember(it.id)
		ix.repOK = false
	}
}

// expireGossip is expireLocal for the gossip set (self→to entries).
func (t *ProbTable) expireGossip(ix *probIndex, now time.Duration) {
	w := &ix.gossip
	for len(w.wheel) > 0 && w.wheel[0].at < now {
		it := w.popWheel()
		e := t.peek(ix.self, it.id)
		if at := e.gossipT + t.stale; at >= now {
			w.pushWheel(at, it.id)
			continue
		}
		e.flags &^= memG
		w.removeMember(it.id)
		ix.repOK = false
	}
}

// ObserveLocal folds a locally measured reception ratio for from→to
// (normally to == self) at the given time. The cached report of self =
// to is dropped only when from joins the local set or its EWMA, the value
// the report shows, takes other bits.
func (t *ProbTable) ObserveLocal(from, to uint16, ratio float64, now time.Duration) {
	s := t.slot(from, to)
	was := s.ewma
	s.update(ratio, t.alpha)
	s.local = now
	if ix := t.peekIndex(to); ix != nil {
		if s.flags&memL == 0 {
			ix.repOK = false
			s.flags |= memL
			t.sizeIndex(ix)
			ix.local.insertMember(from)
			ix.local.pushWheel(now+t.stale, from)
		} else if math.Float64bits(s.ewma) != math.Float64bits(was) {
			ix.repOK = false
		}
	}
}

// ObserveGossip records a probability learned from a peer's beacon.
// Local measurements always win while fresh.
func (t *ProbTable) ObserveGossip(from, to uint16, p float64, now time.Duration) {
	t.foldGossip(t.slot(from, to), p, now)
}

// foldGossip is the one gossip formula, shared by ObserveGossip and the
// beacon walk: it records p at now in slot s and keeps the gossip fresh
// set of self = the slot's from up to date. The cached report of that
// self is dropped only when to joins the set or its gossip, the value the
// report shows, takes other bits.
func (t *ProbTable) foldGossip(s *probSlot, p float64, now time.Duration) {
	was := s.gossip
	s.gossip = p
	s.gossipT = now
	s.flags |= hasG
	if ix := t.peekIndex(uint16(s.key >> 16)); ix != nil {
		to := uint16(s.key)
		if s.flags&memG == 0 {
			ix.repOK = false
			s.flags |= memG
			t.sizeIndex(ix)
			ix.gossip.insertMember(to)
			ix.gossip.pushWheel(now+t.stale, to)
		} else if math.Float64bits(p) != math.Float64bits(was) {
			ix.repOK = false
		}
	}
}

// observeBeacon folds one beacon from sender, heard by self at now, into
// the table: it counts the beacon toward this probe window, marks the
// sender a vehicle when the beacon says so, and records every report
// entry not about a link into self (self's own measurement is
// authoritative) as gossip — in report order, with exactly the effect of
// one ObserveGossip per entry.
//
// A sender lists the same pairs in the same order beacon after beacon, so
// entry i is first tried against the bucket entry i of the sender's last
// report resolved to: when that bucket is live and holds the entry's pair
// the array is not probed. Only a miss — a new sender, a member joining or
// leaving ahead of position i, a reorder, a growth that moved the slot —
// probes the array and rewrites position i. A repeated report costs one
// binary search for the sender and allocates nothing.
func (t *ProbTable) observeBeacon(sender, self uint16, fromVehicle bool, probs []frame.ProbEntry, now time.Duration) {
	ki, ok := t.sender(sender)
	if !ok {
		if t.recs == nil {
			room := t.takeRoom()
			t.keys, t.recs = room.keys[:0], room.recs[:0]
			t.heardList, t.memo = room.ints[:0:roomPeers], room.ints[roomPeers:roomPeers]
		}
		t.keys = slices.Insert(t.keys, ki, senderKey{addr: sender, ri: int32(len(t.recs))})
		t.recs = append(t.recs, senderRec{addr: sender, off: int32(len(t.memo))})
	}
	ri := t.keys[ki].ri
	r := &t.recs[ri]
	if r.heard == 0 {
		t.heardList = append(t.heardList, ri)
	}
	r.heard++
	r.veh = r.veh || fromVehicle
	if len(probs) > int(r.c) {
		t.reserve(r, max(int32(len(probs)), 2*r.c))
	}
	memo := t.memo[r.off : r.off+r.c]
	n, i := int(r.n), 0
	for _, pe := range probs {
		if pe.To == self {
			continue
		}
		k := slotKey(pe.From, pe.To)
		si := memo[i]
		if i >= n || t.slots[si].key != k || t.slots[si].flags&live == 0 {
			si = t.slotIndex(k)
			memo[i] = si
		}
		t.foldGossip(&t.slots[si], pe.Prob, now)
		i++
	}
	r.n = int32(i)
}

// reserve gives r a memo region of c positions, keeping the n it has
// filled. A region that ends the memo grows in place; any other moves to
// the end, leaving its old positions unused. The memo starts in the room,
// with space for 64 positions — a few senders' reports of a dozen
// entries — and moves to an array of its own when it outgrows that.
// Reports only outgrow their region while a neighborhood is being
// discovered.
func (t *ProbTable) reserve(r *senderRec, c int32) {
	if r.off+r.c != int32(len(t.memo)) {
		off := int32(len(t.memo))
		t.memo = append(t.memo, t.memo[r.off:r.off+r.n]...)
		r.off = off
	}
	t.memo = append(t.memo, make([]int32, r.off+c-int32(len(t.memo)))...)
	r.c = c
}

// sender returns the position in keys of addr's key and true, or where
// that key would go and false.
func (t *ProbTable) sender(addr uint16) (int, bool) {
	lo, hi := 0, len(t.keys)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.keys[m].addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.keys) && t.keys[lo].addr == addr
}

// rec returns addr's sender record, nil when no beacon of addr was heard.
func (t *ProbTable) rec(addr uint16) *senderRec {
	if ki, ok := t.sender(addr); ok {
		return &t.recs[t.keys[ki].ri]
	}
	return nil
}

// isVehicle reports whether any beacon heard from addr carried
// FromVehicle: in fleet deployments a vehicle hears other vehicles loud
// and clear, but only basestations may serve as anchor or auxiliary
// (§4.3).
func (t *ProbTable) isVehicle(addr uint16) bool {
	r := t.rec(addr)
	return r != nil && r.veh
}

// flush closes self's probe window at now, given the beacons a window is
// expected to carry: every sender heard this window gets its reception
// ratio folded in (in first-heard order), and currently-known peers that
// went silent decay toward zero so their estimates can age out.
func (t *ProbTable) flush(self uint16, expected float64, now time.Duration) {
	for _, ri := range t.heardList {
		r := &t.recs[ri]
		ratio := float64(r.heard) / expected
		if ratio > 1 {
			ratio = 1
		}
		t.ObserveLocal(r.addr, self, ratio, now)
	}
	// Decay peers with fresh estimates that went silent this window, but
	// once an estimate has decayed to noise stop refreshing it so the
	// entry can age out entirely.
	for _, peer := range t.FreshLocalPeers(self, now) {
		if !t.heardThisWindow(peer) && t.Get(peer, self, now) > 0.01 {
			t.ObserveLocal(peer, self, 0, now)
		}
	}
	for _, ri := range t.heardList {
		t.recs[ri].heard = 0
	}
	t.heardList = t.heardList[:0]
}

// heardThisWindow reports whether a beacon from addr was heard since the
// last flush.
func (t *ProbTable) heardThisWindow(addr uint16) bool {
	r := t.rec(addr)
	return r != nil && r.heard > 0
}

// Get returns the current estimate of p(from→to), preferring fresh local
// measurement over fresh gossip, and zero when nothing fresh is known.
func (t *ProbTable) Get(from, to uint16, now time.Duration) float64 {
	if from == to {
		return 1
	}
	s := t.peek(from, to)
	if s == nil {
		return 0
	}
	cutoff := now - t.stale
	if freshAt(s.local, cutoff) {
		return s.ewma
	}
	if s.flags&hasG != 0 && freshAt(s.gossipT, cutoff) {
		return s.gossip
	}
	return 0
}

// FreshLocalPeers returns the peers x with a fresh local estimate of
// p(x→self); used to build beacon prob reports and auxiliary sets. The
// result is sorted ascending: callers break argmax ties and order
// auxiliary sets by it, so any other order would leak nondeterminism
// into anchor choice, relay probabilities and ultimately whole reports.
//
// The returned slice is the index's live member list — read-only, valid
// until the next observation or query for this self. (Refreshing a
// current member, as the beacon counter's decay loop does mid-iteration,
// does not move it.)
func (t *ProbTable) FreshLocalPeers(self uint16, now time.Duration) []uint16 {
	ix := t.indexFor(self, now)
	t.expireLocal(ix, now)
	return ix.local.members
}

// Report builds the beacon probability entries for a node: its fresh
// local measurements (x→self) and the fresh gossiped values about its own
// outgoing links (self→x), which it learned from x's beacons (§4.6).
// Entries are ordered by (From, To) with the report truncated to 255 —
// the wire bound — after ordering, so truncation under ties is exact.
//
// The report is rebuilt only when something changed: between
// observations and expiries the cached entries are returned as-is, so a
// beacon inside a quiet interval touches no peer state at all. The
// returned slice is owned by the table, valid until the next call.
func (t *ProbTable) Report(self uint16, now time.Duration) []frame.ProbEntry {
	ix := t.indexFor(self, now)
	t.expireLocal(ix, now)
	t.expireGossip(ix, now)
	if ix.repOK {
		return ix.rep
	}
	out := ix.rep[:0]
	lm, gm := ix.local.members, ix.gossip.members
	if cap(out) == 0 {
		// The first report gets room for a local and a gossip entry per
		// sender the table has room for, as the sets got room for their
		// members: the room's report when that fits and this is the
		// table's own index.
		if c := max(len(lm)+len(gm), 2*cap(t.recs)); c > 2*roomPeers || ix != &t.idx {
			out = make([]frame.ProbEntry, 0, c)
		} else {
			out = t.takeRoom().rep[:0]
		}
	}
	li := 0
	for ; li < len(lm) && lm[li] < self; li++ {
		out = append(out, frame.ProbEntry{From: lm[li], To: self, Prob: t.peek(lm[li], self).ewma})
	}
	// The From == self block merges the (self, self) local entry — which
	// only synthetic inputs can produce — into the gossip entries by To,
	// local first on the exact tie.
	selfLocal := li < len(lm) && lm[li] == self
	if selfLocal {
		li++
	}
	for _, to := range gm {
		if selfLocal && to >= self {
			out = append(out, frame.ProbEntry{From: self, To: self, Prob: t.peek(self, self).ewma})
			selfLocal = false
		}
		out = append(out, frame.ProbEntry{From: self, To: to, Prob: t.peek(self, to).gossip})
	}
	if selfLocal {
		out = append(out, frame.ProbEntry{From: self, To: self, Prob: t.peek(self, self).ewma})
	}
	for ; li < len(lm); li++ {
		out = append(out, frame.ProbEntry{From: lm[li], To: self, Prob: t.peek(lm[li], self).ewma})
	}
	if len(out) > 255 {
		out = out[:255]
	}
	ix.rep = out
	ix.repOK = true
	return out
}
