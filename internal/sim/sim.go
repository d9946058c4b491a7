// Package sim provides the discrete-event simulation kernel underneath the
// ViFi reproduction: a virtual clock, a 4-ary-heap event scheduler, and
// deterministic, stream-splittable random number generation.
//
// All protocol and channel code in this repository is written against this
// kernel so that every experiment is reproducible bit-for-bit from a seed.
// The kernel is single-goroutine by design — wireless simulations are
// latency-dominated, not CPU-parallel, and determinism matters more than
// core count here. Parallelism happens around the kernel: a districted
// city runs one kernel per group of districts, which share nothing and so
// need no synchronisation (internal/experiment), and a Gang fans one
// event's work out across lanes inside a kernel.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event func()

// OnEvent makes a closure a Handler: At/After schedule fn as Event(fn),
// and converting a func value to an interface allocates nothing (func
// values are pointer-shaped), so the kernel stores one callback kind.
func (e Event) OnEvent() { e() }

// Handler is the allocation-free way to schedule work: a long-lived
// protocol object implements OnEvent once and is scheduled repeatedly via
// AtHandler/AfterHandler without allocating a closure per event. The
// closure forms At/After are the convenient form — the closure itself is
// the caller's allocation; the kernel never allocates per event either
// way, event records live in a pooled, index-addressed arena with a free
// list.
type Handler interface {
	OnEvent()
}

// event is one pooled scheduled-event record. Records are addressed by
// index into the kernel's arena; gen distinguishes reuses of a slot so
// stale Timer handles can never cancel an unrelated event.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	h    Handler
	gen  uint32
	hpos int32 // position in the heap, -1 when not queued
	next int32 // free-list link
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is a valid, non-pending timer; Stop and Pending on it are no-ops.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Stop cancels the timer if it has not fired, removing the event from the
// scheduler in O(log n). It reports whether the timer was still pending.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	k := t.k
	k.heapRemove(k.pool[t.idx].hpos)
	k.release(t.idx)
	return true
}

// Pending reports whether the timer is still scheduled and uncancelled.
func (t Timer) Pending() bool {
	if t.k == nil || int(t.idx) >= len(t.k.pool) {
		return false
	}
	ev := &t.k.pool[t.idx]
	return ev.gen == t.gen && ev.hpos >= 0
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now  time.Duration
	pool []event    // arena of event records
	free int32      // free-list head, -1 when empty
	heap []heapSlot // 4-ary min-heap ordered by (at, seq)
	seq  uint64
	root uint64 // root seed for RNG streams
	nrun uint64 // events executed
}

// NewKernel returns a kernel whose clock starts at zero and whose RNG
// streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{root: splitmix(uint64(seed)), free: -1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// EventsRun returns the number of events executed so far (useful in tests
// and for progress accounting).
func (k *Kernel) EventsRun() uint64 { return k.nrun }

// Pending returns the number of scheduled events.
func (k *Kernel) Pending() int { return len(k.heap) }

// alloc takes a record from the free list, growing the arena only when it
// is exhausted (steady state never grows).
func (k *Kernel) alloc() int32 {
	if i := k.free; i >= 0 {
		k.free = k.pool[i].next
		return i
	}
	k.pool = append(k.pool, event{})
	return int32(len(k.pool) - 1)
}

// release returns a record to the free list, invalidating outstanding
// Timer handles via the generation counter.
func (k *Kernel) release(i int32) {
	ev := &k.pool[i]
	ev.h = nil
	ev.gen++
	ev.hpos = -1
	ev.next = k.free
	k.free = i
}

func (k *Kernel) schedule(at time.Duration, h Handler) Timer {
	k.seq++
	return k.push(at, k.seq, h)
}

// push queues h under the key (at, seq).
func (k *Kernel) push(at time.Duration, seq uint64, h Handler) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	i := k.alloc()
	ev := &k.pool[i]
	ev.at, ev.seq, ev.h = at, seq, h
	k.heapPush(i)
	return Timer{k: k, idx: i, gen: ev.gen}
}

// Every schedules fn(i) at start + i·period for each i in [0, n) — a
// fixed-period packet train — while keeping a single event pending. The
// call reserves n consecutive sequence numbers, so firing i carries
// exactly the key (at, seq) the i-th of n back-to-back At calls would
// have had, and the kernel pops the same order either way (DESIGN §6
// "Trains"). Firing i+1 is armed before fn(i) runs. Like At, it panics
// when start is in the past; period must not be negative. A train cannot
// be stopped.
func (k *Kernel) Every(start, period time.Duration, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	t := &train{k: k, start: start, period: period, base: k.seq + 1, n: n, fn: fn}
	k.seq += uint64(n)
	k.push(start, t.base, t)
}

// train is one Every call; firing i holds the reserved seq base+i.
type train struct {
	k             *Kernel
	start, period time.Duration
	base          uint64
	i, n          int
	fn            func(int)
}

func (t *train) OnEvent() {
	i := t.i
	if t.i++; t.i < t.n {
		t.k.push(t.start+time.Duration(t.i)*t.period, t.base+uint64(t.i), t)
	}
	t.fn(i)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past panics: it always indicates a protocol bug.
func (k *Kernel) At(at time.Duration, fn Event) Timer { return k.schedule(at, fn) }

// After schedules fn to run d after the current time.
func (k *Kernel) After(d time.Duration, fn Event) Timer { return k.AfterHandler(d, fn) }

// AtHandler schedules h.OnEvent to run at absolute virtual time at. It is
// the allocation-free twin of At.
func (k *Kernel) AtHandler(at time.Duration, h Handler) Timer { return k.schedule(at, h) }

// AfterHandler schedules h.OnEvent to run d after the current time.
func (k *Kernel) AfterHandler(d time.Duration, h Handler) Timer {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, h)
}

// Step executes the earliest pending event. It reports false when the
// event queue is empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	i := k.heap[0].idx
	k.heapRemove(0)
	ev := &k.pool[i]
	k.now = ev.at
	k.nrun++
	// Copy the callback out and free the slot before invoking: the
	// callback may schedule (possibly growing the arena and reusing this
	// very slot), so no pointer into the pool survives the call.
	h := ev.h
	k.release(i)
	h.OnEvent()
	return true
}

// Run executes events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline time.Duration) {
	for len(k.heap) > 0 && k.heap[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// --- event heap -----------------------------------------------------------
//
// The heap slots carry the ordering key (at, seq) inline next to the pool
// index: comparisons stay within the heap's own memory instead of
// dereferencing the event arena, which is where a population-scale
// simulation (tens of thousands of pending events, millions of heap ops)
// spends its comparison time. The heap is 4-ary for the same reason —
// half the depth of a binary heap, and the four children of a node share
// a cache line. (at, seq) is a strict total order over live events (seq
// is unique), so heap shape never influences pop order: any correct heap
// pops the exact same sequence.

// heapSlot is one heap entry: the ordering key and the pool index.
type heapSlot struct {
	at  time.Duration
	seq uint64
	idx int32
}

func slotLess(a, b heapSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *Kernel) heapPush(i int32) {
	pos := int32(len(k.heap))
	ev := &k.pool[i]
	k.heap = append(k.heap, heapSlot{at: ev.at, seq: ev.seq, idx: i})
	ev.hpos = pos
	k.siftUp(pos)
}

// heapRemove removes the entry at heap position pos in O(log n),
// maintaining every record's hpos.
func (k *Kernel) heapRemove(pos int32) {
	n := int32(len(k.heap)) - 1
	removed := k.heap[pos].idx
	last := k.heap[n]
	k.heap = k.heap[:n]
	k.pool[removed].hpos = -1
	if pos < n {
		k.heap[pos] = last
		k.pool[last.idx].hpos = pos
		if !k.siftUp(pos) {
			k.siftDown(pos)
		}
	}
}

// siftUp restores the heap property upward from pos and reports whether
// the entry moved.
func (k *Kernel) siftUp(pos int32) bool {
	moved := false
	s := k.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		if !slotLess(s, k.heap[parent]) {
			break
		}
		k.heap[pos] = k.heap[parent]
		k.pool[k.heap[pos].idx].hpos = pos
		pos = parent
		moved = true
	}
	if moved {
		k.heap[pos] = s
		k.pool[s.idx].hpos = pos
	}
	return moved
}

func (k *Kernel) siftDown(pos int32) {
	n := int32(len(k.heap))
	s := k.heap[pos]
	moved := false
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if slotLess(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if !slotLess(k.heap[best], s) {
			break
		}
		k.heap[pos] = k.heap[best]
		k.pool[k.heap[pos].idx].hpos = pos
		pos = best
		moved = true
	}
	if moved {
		k.heap[pos] = s
		k.pool[s.idx].hpos = pos
	}
}

// RNG returns a deterministic random stream derived from the kernel seed
// and the given labels. Identical labels yield identical streams, so each
// link, node or process can own an independent stream that does not
// perturb any other — adding a new consumer of randomness never changes
// existing experiments. It is Seed into a fresh RNG.
func (k *Kernel) RNG(labels ...string) *RNG {
	r := new(RNG)
	k.Seed(r, labels)
	return r
}

// Seed seeds r in place with the stream
// k.RNG(labels[0], …, fmt.Sprint(ints[0]), …) returns: the string labels,
// then each integer as the decimal bytes fmt.Sprint prints for it, through
// the one label hash. It allocates neither the strings nor the RNG — the
// label slice and the integers stay on the caller's stack — so an owner
// of a per-radio or per-link stream embeds its RNG by value and seeds it
// here. RNG and SeedPair are this method; no other hashes a label.
func (k *Kernel) Seed(r *RNG, labels []string, ints ...int) {
	h := k.root
	for _, l := range labels {
		h = mixLabel(h, l)
	}
	var buf [20]byte // the longest int64 in decimal, sign included
	for _, i := range ints {
		h = mixLabel(h, strconv.AppendInt(buf[:0], int64(i), 10))
	}
	r.seed(h)
}

// SeedPair seeds r in place with the stream
// k.RNG(label, fmt.Sprint(a), fmt.Sprint(b)) returns — Seed with one
// label and two integers. The radio channel holds three such streams per
// directed link.
func (k *Kernel) SeedPair(r *RNG, label string, a, b int) {
	k.Seed(r, []string{label}, a, b)
}

// mixLabel folds one label — its bytes, then a terminator so that
// ("ab","c") and ("a","bc") differ — into a stream seed.
func mixLabel[T string | []byte](h uint64, l T) uint64 {
	for i := 0; i < len(l); i++ {
		h = splitmix(h ^ uint64(l[i]))
	}
	return splitmix(h ^ 0x9e3779b97f4a7c15)
}

// splitmix is the SplitMix64 finalizer, used both to derive stream seeds
// and as the core of RNG.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded via SplitMix64). It intentionally does not share
// state with math/rand so experiments stay reproducible regardless of what
// other packages do.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded from the given value.
func NewRNG(seed uint64) *RNG {
	var r RNG
	r.seed(seed)
	return &r
}

// seed resets r to the start of the stream NewRNG(seed) returns.
func (r *RNG) seed(seed uint64) {
	x := seed
	for i := range r.s {
		x = splitmix(x)
		r.s[i] = x
	}
	// xoshiro must not be seeded all-zero.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 { return NormFrom(r.NormUniforms()) }

// NormUniforms draws the two uniforms of one Box–Muller variate, u in
// (0, 1) and v in [0, 1): everything NormFloat64 does to the stream and
// none of its arithmetic. A caller that may never read the variate keeps
// the pair and calls NormFrom only if it does.
func (r *RNG) NormUniforms() (u, v float64) {
	for {
		u = r.Float64()
		if u == 0 {
			continue
		}
		return u, r.Float64()
	}
}

// NormFrom is the Box–Muller transform of a pair from NormUniforms.
func NormFrom(u, v float64) float64 {
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// The two tables behind NormBracket. normRadius holds sqrt(−2 ln u) at the
// edges of 16 mantissa bins per binade of u, indexed by k, the binade
// 2⁻ᵏ ≤ u < 2¹⁻ᵏ read off u's exponent, with the top four mantissa bits
// appended: {smallest, largest} radius over the bin, the radius falling as
// u rises. A uniform has 53 bits, so k stops at 53; row 0 is the exponent
// of u = 1, which NormUniforms never draws. normCos holds cos 2πv at the
// edges of 256 equal bins of v; the cosine's zeros and extrema (v = 0, ¼,
// ½, ¾) fall on bin edges, so it is monotone and keeps one sign across
// every bin and its range there is its two edge values. Every entry is
// moved outwards by 1e-12 (the radius relatively, the cosine absolutely) —
// thousands of ulps, nothing against any margin a caller compares with —
// so that the last-place errors of log, sqrt and cos cannot carry a
// computed variate outside. loR and hiR say which radius each cosine bound
// multiplies: the largest for a lower bound that is negative or an upper
// bound that is positive, the smallest otherwise.
var (
	normRadius = func() (t [54 * 16][2]float64) {
		for k := 1; k < 54; k++ { // row 0 stays {0, 0}: u = 1, a settled reading
			hi := math.Sqrt(-2 * math.Log(math.Ldexp(1, -k)))
			for m := 0; m < 16; m++ {
				lo := math.Sqrt(-2 * math.Log(math.Ldexp(1+float64(m+1)/16, -k)))
				t[k<<4|m] = [2]float64{lo * (1 - 1e-12), hi * (1 + 1e-12)}
				hi = lo
			}
		}
		return t
	}()
	normCos = func() (t [256]struct {
		lo, hi   float64
		loR, hiR uint8
	}) {
		a := 1.0
		for j := range t {
			b := math.Cos(2 * math.Pi * float64(j+1) / 256)
			c := &t[j]
			c.lo, c.hi = min(a, b)-1e-12, max(a, b)+1e-12
			if c.lo < 0 {
				c.loR = 1
			}
			if c.hi > 0 {
				c.hiR = 1
			}
			a = b
		}
		return t
	}()
)

// NormBracket returns an interval that contains NormFrom(u, v), read from
// tables by u's exponent and top mantissa bits and by v's top eight bits:
// the product of the radius bin and the cosine bin, 0.05 wide on average
// and 0.25 at worst (the bin that ends at u = 1). u must lie in [2⁻⁵³, 1]
// and v in [0, 1); u = 1 yields (0, 0), which lets a caller that has
// already taken its variate mark the pair as spent by setting u to 1. The
// products are of table entries that bracket the very floats NormFrom
// multiplies, and rounding a product is monotone, so the bracket holds for
// the computed variate, not merely the real one.
func NormBracket(u, v float64) (lo, hi float64) {
	bits := math.Float64bits(u)
	r := &normRadius[(1023-int(bits>>52))<<4|int(bits>>48)&15]
	c := &normCos[int(v*256)]
	return r[c.loR&1] * c.lo, r[c.hiR&1] * c.hi
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Jitter returns a uniform value in [-d/2, d/2], handy for desynchronizing
// periodic processes such as beacons and relay timers.
func (r *RNG) Jitter(d time.Duration) time.Duration {
	return time.Duration((r.Float64() - 0.5) * float64(d))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct values from [0, n) in random order.
// It panics if k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("sim: Sample k > n")
	}
	return r.Perm(n)[:k]
}
