package experiment

import (
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the resilience measurement of a faulted fleet run:
// what deterministic fault injection (internal/fault) did to it and how
// the fleet rode through. The scale-faults sweep (sweeps.go) reads it
// with fault frequency as the axis.

// FaultReport is the resilience outcome of one faulted fleet run:
// what was injected (per-layer windows and union downtime from the
// planned timeline) and how the fleet rode through it (delivery
// availability, gap attribution, and post-restore recovery times).
type FaultReport struct {
	// Windows and DownSec count injected outage windows and union
	// downtime seconds per layer (indexed by fault.Layer).
	Windows [fault.NumLayers]int
	DownSec [fault.NumLayers]float64

	// Restores counts outage windows that ended within the run.
	Restores int

	// Recovered counts restores followed by at least one fleet delivery;
	// RecoveryMeanSec is the mean restore-to-first-delivery time over
	// those. A restore with traffic already flowing recovers in ~0s.
	Recovered       int
	RecoveryMeanSec float64

	// Availability is the fraction of one-second bins with at least one
	// application delivery somewhere in the fleet, counted from the
	// first delivery onward (from the start when nothing was ever
	// delivered). GapBins are the silent bins; GapBinsFault
	// the subset overlapping an injected outage window — the remainder
	// is ordinary radio silence, not fault-attributable.
	Availability float64
	GapBins      int
	GapBinsFault int
}

// faultRecorder observes fleet-wide application deliveries during a
// faulted run: it marks one-second delivery bins for the availability
// metric and resolves restore-to-first-delivery recovery times. It is
// installed only when faults are injected, so fault-free runs keep the
// exact delivery path (and bytes) they had before fault injection
// existed.
type faultRecorder struct {
	k    *sim.Kernel
	bins []bool
	// restores records every outage-restore instant in timeline order;
	// recoveredAt[i] holds the first delivery at or after restores[i]
	// (negative while unresolved). The positional form is what makes
	// shard recorders mergeable: the restore timeline is identical in
	// every shard, and the fleet-wide first delivery after a restore is
	// the minimum of the shards' local first deliveries.
	restores    []time.Duration
	recoveredAt []time.Duration
	next        int // first unresolved restore index
}

func newFaultRecorder(k *sim.Kernel, dur time.Duration) *faultRecorder {
	// One extra bin covers the post-duration drain second.
	return &faultRecorder{k: k, bins: make([]bool, int(dur/time.Second)+2)}
}

// bind installs the vehicle's application delivery hooks with the
// recorder's observation wrapped around the driver's, replacing the
// plain workload.Bind wiring.
func (r *faultRecorder) bind(c *core.Cell, i int, d workload.Driver) {
	c.HookVehicle(i,
		func(id frame.PacketID, p []byte, from uint16) { r.delivery(); d.DeliverDown(p) },
		func(id frame.PacketID, p []byte, from uint16) { r.delivery(); d.DeliverUp(p) })
}

// delivery marks the current bin and resolves every pending restore:
// this is the first delivery at or after those restore instants.
func (r *faultRecorder) delivery() {
	now := r.k.Now()
	if b := int(now / time.Second); b >= 0 && b < len(r.bins) {
		r.bins[b] = true
	}
	for ; r.next < len(r.restores); r.next++ {
		r.recoveredAt[r.next] = now
	}
}

// restored is the InstallFaults onRestore callback.
func (r *faultRecorder) restored(at time.Duration) {
	r.restores = append(r.restores, at)
	r.recoveredAt = append(r.recoveredAt, -1)
}

// mergeFaultRecorders folds per-shard recorders into the fleet-wide view
// a serial run's single recorder would have produced: delivery bins OR
// together, and each restore's recovery resolves at the earliest local
// delivery any shard saw. Every shard runs the identical fault timeline,
// so the restore instants agree positionally by construction.
func mergeFaultRecorders(recs []*faultRecorder) *faultRecorder {
	m := &faultRecorder{
		k:           recs[0].k,
		bins:        make([]bool, len(recs[0].bins)),
		restores:    append([]time.Duration(nil), recs[0].restores...),
		recoveredAt: make([]time.Duration, len(recs[0].restores)),
	}
	for i := range m.recoveredAt {
		m.recoveredAt[i] = -1
	}
	for _, r := range recs {
		if len(r.restores) != len(m.restores) {
			panic("experiment: shard fault timelines diverged")
		}
		for i, b := range r.bins {
			if b {
				m.bins[i] = true
			}
		}
		for i, at := range r.recoveredAt {
			if at >= 0 && (m.recoveredAt[i] < 0 || at < m.recoveredAt[i]) {
				m.recoveredAt[i] = at
			}
		}
	}
	return m
}

// report folds the recorder and the planned timeline into the run's
// FaultReport.
func (r *faultRecorder) report(tl fault.Timeline) *FaultReport {
	sum := tl.Summarize()
	recovered, recoverySum := 0, time.Duration(0)
	for i, at := range r.restores {
		if r.recoveredAt[i] >= 0 {
			recovered++
			recoverySum += r.recoveredAt[i] - at
		}
	}
	rep := &FaultReport{Restores: sum.Restores, Recovered: recovered}
	for l := range rep.Windows {
		rep.Windows[l] = sum.ByLayer[l].Outages
		rep.DownSec[l] = sum.ByLayer[l].Down.Seconds()
	}
	if recovered > 0 {
		rep.RecoveryMeanSec = (recoverySum / time.Duration(recovered)).Seconds()
	}
	first := 0 // a run that never delivered is silent from its start
	for i, b := range r.bins {
		if b {
			first = i
			break
		}
	}
	total := 0
	for i := first; i < len(r.bins); i++ {
		total++
		if r.bins[i] {
			continue
		}
		rep.GapBins++
		binStart := time.Duration(i) * time.Second
		binEnd := binStart + time.Second
		for _, o := range tl.Outages {
			if o.Start < binEnd && o.End > binStart {
				rep.GapBinsFault++
				break
			}
		}
	}
	rep.Availability = float64(total-rep.GapBins) / float64(total)
	return rep
}
