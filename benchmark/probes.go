package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/vanlan/vifi/internal/backplane"
	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mac"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/transport"
	"github.com/vanlan/vifi/internal/workload"
)

// Probes are small loops that drive one layer's exported API at the
// operating point a workload's counts imply, and report the unit cost
// (median of probeBatches timed batches). They measure each layer from
// outside; nothing under internal/ is instrumented.

const probeBatches = 5

// probeCount is the number of timed loops runProbes shares its budget
// between.
const probeCount = 17

// probePoint is the operating point of one workload, read off its
// traced op.
type probePoint struct {
	w      workloadDef
	seed   int64
	heap   int // kernel heap depth (sim.heap_mean)
	peers  int // fresh local peers per basestation (core.index_local_mean / BS)
	aux    int // auxiliaries per vehicle (core.aux_mean / vehicles)
	series int // obs schema width
}

// measure times fn in probeBatches batches of about budget/probeBatches
// each and returns the median nanoseconds per iteration. fn(n) performs
// n iterations.
func measure(budget time.Duration, fn func(n int)) float64 {
	batch := budget / probeBatches
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= batch/8 || n >= 1<<28 {
			if d > 0 {
				n = int(float64(n) * float64(batch) / float64(d))
			}
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	per := make([]float64, probeBatches)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	sort.Float64s(per)
	return per[probeBatches/2]
}

type nopHandler struct{}

func (nopHandler) OnEvent() {}

// filledKernel returns a kernel holding depth pending handler events, so
// probes schedule and cancel against a heap as deep as the workload's.
func filledKernel(depth int) (*sim.Kernel, *sim.RNG) {
	k := sim.NewKernel(1)
	rng := sim.NewRNG(1)
	for i := 0; i < depth; i++ {
		k.AtHandler(time.Duration(1+rng.Intn(1e9)), nopHandler{})
	}
	return k, rng
}

// probeDispatch: AtHandler + Step at the workload's heap depth. Each
// new event lands at a random place among the pending ones and the
// earliest pending one runs, so depth holds steady.
func probeDispatch(budget time.Duration, depth int) float64 {
	k, rng := filledKernel(depth)
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			k.AtHandler(k.Now()+time.Duration(1+rng.Intn(1e9)), nopHandler{})
			k.Step()
		}
	})
}

// probeCancel: AfterHandler + Timer.Stop, the retransmit-timer pattern.
func probeCancel(budget time.Duration, depth int) float64 {
	k, rng := filledKernel(depth)
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			k.AfterHandler(time.Duration(1+rng.Intn(1e9)), nopHandler{}).Stop()
		}
	})
}

// bareChannel attaches the workload's own radios — the generated city,
// or VanLAN for the paper figures — to a channel with no protocol stack
// above it.
func bareChannel(w workloadDef, seed int64) (*sim.Kernel, *radio.Channel, error) {
	k := sim.NewKernel(seed)
	var bs []mobility.Point
	var vehs []mobility.Mover
	params := radio.DefaultParams()
	if w.spec == "" {
		v := mobility.NewVanLAN()
		bs = v.BSes
		vehs = []mobility.Mover{&mobility.RouteMover{Route: v.Route}}
	} else {
		spec, err := scenario.Parse(w.spec)
		if err != nil {
			return nil, nil, err
		}
		lay, err := scenario.Generate(k, spec)
		if err != nil {
			return nil, nil, err
		}
		params = spec.Apply(core.DefaultCellOptions()).Radio
		bs = lay.BSes
		for i, r := range lay.Routes {
			vehs = append(vehs, &mobility.RouteMover{Route: r, Depart: lay.Departs[i]})
		}
	}
	ch := radio.NewChannelSized(k, params, nil, len(bs)+len(vehs))
	for i, p := range bs {
		ch.Attach(fmt.Sprintf("bs%d", i), mobility.Fixed(p), nil)
	}
	for i, m := range vehs {
		ch.Attach(fmt.Sprintf("veh%d", i), m, nil)
	}
	return k, ch, nil
}

// probeRadio returns ns per Broadcast (with the delivery events it
// causes, receivers null), ns per Busy with one frame on the air, and
// whether the channel runs the spatially indexed path.
func probeRadio(budget time.Duration, p probePoint) (broadcastNs, busyNs float64, indexed bool, err error) {
	k, ch, err := bareChannel(p.w, p.seed)
	if err != nil {
		return 0, 0, false, err
	}
	nodes := ch.NumNodes()
	payload := make([]byte, 500)
	next := 0
	broadcastNs = measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			// Run to the end of the frame's airtime, when its receptions
			// complete; an indexed channel re-validates its grid for ever,
			// so the queue never drains.
			airtime := ch.Broadcast(radio.NodeID(next%nodes), payload, nil)
			k.RunUntil(k.Now() + airtime)
			next++
		}
	})
	indexed = ch.Indexed()
	// The kernel is not advanced, so this frame stays on the air.
	ch.Broadcast(0, payload, nil)
	busyNs = measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			ch.Busy(radio.NodeID(i % nodes))
		}
	})
	return broadcastNs, busyNs, indexed, nil
}

// macPair is a quiet two-node channel with lossless links.
func macPair() (*sim.Kernel, *mac.MAC, *mac.MAC) {
	k := sim.NewKernel(1)
	ch := radio.NewChannel(k, radio.DefaultParams(), func(from, to radio.NodeID) radio.LinkModel { return radio.FixedLink(1) })
	a := mac.New(k, ch, "a", mobility.Fixed{})
	b := mac.New(k, ch, "b", mobility.Fixed{X: 50})
	b.SetHandler(mac.HandlerFunc(func(*frame.Frame, radio.RxInfo) {}))
	return k, a, b
}

// probeMACSend: Send → txDone → reception at the peer.
func probeMACSend(budget time.Duration) float64 {
	k, a, b := macPair()
	f := dataFrame(a.Addr(), b.Addr())
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			f.Seq++
			a.Send(f)
			k.Run()
		}
	})
}

// probeMACBeacon: one StartBeacons tick — produce, marshal, broadcast,
// decode at the peer — with a report of the given width.
func probeMACBeacon(budget time.Duration, width int) float64 {
	k, a, _ := macPair()
	f := beaconFrame(width)
	a.StartBeacons(func() *frame.Frame { return f })
	interval := mac.DefaultConfig().BeaconInterval
	return measure(budget, func(n int) {
		k.RunUntil(k.Now() + time.Duration(n)*interval)
	})
}

func dataFrame(src, dst uint16) *frame.Frame {
	return &frame.Frame{Type: frame.TypeData, Src: src, Dst: dst, Seq: 1, Payload: make([]byte, 500)}
}

func beaconFrame(width int) *frame.Frame {
	b := &frame.Beacon{Anchor: 1, PrevAnchor: frame.None, Aux: []uint16{2, 3}}
	for i := 0; i < width; i++ {
		b.Probs = append(b.Probs, frame.ProbEntry{From: uint16(i + 1), To: 0, Prob: 0.5})
	}
	return &frame.Frame{Type: frame.TypeBeacon, Src: 0, Dst: frame.Broadcast, Seq: 1, FromVehicle: true, Beacon: b}
}

func probeMarshal(budget time.Duration, f *frame.Frame) float64 {
	buf := make([]byte, 0, f.WireSize())
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = f.AppendTo(buf[:0]) // sized with WireSize: cannot fail
		}
	})
}

func probeUnmarshal(budget time.Duration, f *frame.Frame) (float64, error) {
	buf, err := f.Marshal()
	if err != nil {
		return 0, err
	}
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			frame.Unmarshal(buf)
		}
	}), nil
}

// probeProbBeacon: one beacon interval of table upkeep at the given
// neighbourhood — refresh every peer locally and by gossip, build the
// report.
func probeProbBeacon(budget time.Duration, peers int) float64 {
	cfg := core.DefaultConfig()
	tb := core.NewProbTable(cfg.ProbAlpha, cfg.ProbStale)
	now := time.Second
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			now += cfg.BeaconInterval
			for p := uint16(1); p <= uint16(peers); p++ {
				tb.ObserveLocal(p, 0, 0.5, now)
				tb.ObserveGossip(0, p, 0.5, now)
			}
			tb.Report(0, now)
		}
	})
}

func probeRelayProb(budget time.Duration, aux int) float64 {
	ctx := &core.RelayContext{}
	for i := 0; i < aux; i++ {
		ctx.Aux = append(ctx.Aux, uint16(i))
		ctx.C = append(ctx.C, 0.4)
		ctx.PToDst = append(ctx.PToDst, 0.6)
	}
	var sink float64
	ns := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += core.RelayProb(core.CoordViFi, ctx)
		}
	})
	_ = sink
	return ns
}

// probeBackplane: Send → uplink → core → downlink → handler.
func probeBackplane(budget time.Duration) float64 {
	k := sim.NewKernel(1)
	net := backplane.New(k, backplane.DefaultConfig())
	net.Attach(1, func(uint16, []byte) {})
	net.Attach(2, func(uint16, []byte) {})
	payload := make([]byte, 500)
	return measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			net.Send(1, 2, payload)
			k.Run()
		}
	})
}

// probeTransfer: one 10 KB mini-TCP transfer over a lossless pipe with
// 5 ms one-way delay, in microseconds.
func probeTransfer(budget time.Duration) (float64, error) {
	k := sim.NewKernel(1)
	var failed error
	pipe := func(dst func([]byte)) transport.SendFunc {
		return func(p []byte) bool {
			c := append([]byte(nil), p...)
			k.After(5*time.Millisecond, func() { dst(c) })
			return true
		}
	}
	ns := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			var snd *transport.Sender
			var rcv *transport.Receiver
			done := false
			snd = transport.NewSender(k, transport.DefaultConfig(), uint32(i), 10<<10,
				pipe(func(b []byte) { rcv.Deliver(b) }),
				func(r transport.TransferResult) { done = r.Completed })
			rcv = transport.NewReceiver(k, uint32(i), pipe(func(b []byte) { snd.Deliver(b) }))
			snd.Start()
			for !done && k.Step() {
			}
			if !done {
				failed = fmt.Errorf("transport probe: transfer did not complete")
			}
			k.Run()
		}
	})
	return ns / 1e3, failed
}

// probeWorkloadTick: one CBR slot (a send each way) through a port that
// accepts everything.
func probeWorkloadTick(budget time.Duration) float64 {
	k := sim.NewKernel(1)
	accept := func([]byte) bool { return true }
	port := workload.Port{K: k, SendUp: accept, SendDown: accept}
	cfg := workload.DefaultConfig()
	return measure(budget, func(n int) {
		c := workload.NewCBR(k, port, 0, k.Now(), k.Now()+time.Duration(n)*cfg.CBRSlot, cfg.CBRSlot, cfg.CBRBytes)
		c.Start()
		k.Run()
	})
}

// probeSample: one sampler tick over a schema as wide as the workload's.
func probeSample(budget time.Duration, series int) float64 {
	reg := obs.NewRegistry()
	var v int64
	for i := 0; i < series; i++ {
		reg.Counter(fmt.Sprintf("s%d", i), func() int64 { return v })
	}
	// A sampler's first tick is at one interval after time zero and its
	// buffer is sized from the horizon, so ticks come in chunks, each on
	// a new kernel.
	const chunk = 4096
	return measure(budget, func(n int) {
		for n > 0 {
			m := min(n, chunk)
			k := sim.NewKernel(1)
			obs.Attach(k, reg, time.Second, time.Duration(m)*time.Second, nil)
			k.Run()
			v++
			n -= m
		}
	})
}

func probeScenarioGenerate(budget time.Duration, p probePoint) (float64, error) {
	if p.w.spec == "" {
		return 0, nil
	}
	spec, err := scenario.Parse(p.w.spec)
	if err != nil {
		return 0, err
	}
	ns := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			if _, e := scenario.Generate(sim.NewKernel(p.seed+int64(i)), spec); e != nil {
				err = e
			}
		}
	})
	return ns / 1e6, err
}

// probeTraceGenerate: one hour of synthetic DieselNet trace, what the
// paper-figure cells build on first use.
func probeTraceGenerate(budget time.Duration, p probePoint) float64 {
	ns := measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			trace.GenerateDieselNet(p.seed+int64(i), 1, time.Hour)
		}
	})
	return ns / 1e6
}

// runProbes measures every unit cost at p's operating point. total is
// shared out evenly across the probes.
func runProbes(total time.Duration, p probePoint) (map[string]float64, error) {
	b := total / probeCount
	out := map[string]float64{}
	var err error

	out["sim.dispatch_ns"] = probeDispatch(b, p.heap)
	out["sim.cancel_ns"] = probeCancel(b, p.heap)
	var indexed bool
	// The radio probe holds two loops.
	if out["radio.broadcast_ns"], out["radio.busy_ns"], indexed, err = probeRadio(b, p); err != nil {
		return nil, err
	}
	if indexed {
		out["radio.indexed"] = 1
	} else {
		out["radio.indexed"] = 0
	}
	out["mac.send_ns"] = probeMACSend(b)
	out["mac.beacon_ns"] = probeMACBeacon(b, p.peers)
	out["frame.marshal_ns"] = probeMarshal(b, dataFrame(1, 2))
	if out["frame.unmarshal_ns"], err = probeUnmarshal(b, dataFrame(1, 2)); err != nil {
		return nil, err
	}
	if out["frame.beacon_unmarshal_ns"], err = probeUnmarshal(b, beaconFrame(p.peers)); err != nil {
		return nil, err
	}
	out["core.prob_beacon_ns"] = probeProbBeacon(b, p.peers)
	out["core.relay_prob_ns"] = probeRelayProb(b, p.aux)
	out["bp.send_ns"] = probeBackplane(b)
	if out["transport.transfer_us"], err = probeTransfer(b); err != nil {
		return nil, err
	}
	out["workload.tick_ns"] = probeWorkloadTick(b)
	out["obs.sample_ns"] = probeSample(b, p.series)
	if out["scenario.generate_ms"], err = probeScenarioGenerate(b, p); err != nil {
		return nil, err
	}
	out["trace.generate_ms"] = probeTraceGenerate(b, p)
	return out, nil
}
