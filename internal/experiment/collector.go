package experiment

import (
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
)

// txKey identifies one source transmission (direction + packet id +
// attempt). Direction is part of the key so that coincidentally equal
// (source, seq) pairs in the two directions can never alias.
type txKey struct {
	dir     core.Direction
	id      frame.PacketID
	attempt uint8
}

// txRecord accumulates the fate of one source transmission across the
// probe events — the unit of analysis of Table 1.
type txRecord struct {
	srcTx     bool
	dstDirect bool
	auxHeard  int
	relays    int
	relayRecv int
	declined  int
}

// Collector aggregates core protocol events into the statistics behind
// Table 1, Table 2 and Fig 12.
type Collector struct {
	tx map[txKey]txRecord

	// Direction-level counters.
	Deliver  [2]int // unique app deliveries
	SrcTxAir [2]int // source transmissions on the air
	RelayAir [2]int // relays on the air (downstream)
	Salvaged int

	// AuxCountSamples collects the vehicle's auxiliary-set size over time
	// (Table 1 row A1): a collecting TCP run feeds it once per second.
	AuxCountSamples []int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{tx: map[txKey]txRecord{}}
}

// sampleAux appends veh's auxiliary-set size to AuxCountSamples once per
// second from fleetWarm until dur.
func (c *Collector) sampleAux(k *sim.Kernel, veh *core.Node, dur time.Duration) {
	var sample func()
	sample = func() {
		c.AuxCountSamples = append(c.AuxCountSamples, veh.AuxCount())
		if k.Now() < dur {
			k.After(time.Second, sample)
		}
	}
	k.After(fleetWarm, sample)
}

// Handle is the core.EventFunc sink.
func (c *Collector) Handle(e core.Event) {
	d := int(e.Dir)
	switch e.Kind {
	case core.EvDeliver:
		c.Deliver[d]++
		return
	case core.EvSalvaged:
		c.Salvaged++
		return
	case core.EvSrcTx:
		c.SrcTxAir[d]++
	case core.EvAuxRelayed:
		if e.Medium == core.MediumAir {
			c.RelayAir[d]++
		}
	case core.EvDstRecvDirect, core.EvDstRecvRelay, core.EvAuxHeard, core.EvAuxDeclined:
	default:
		return
	}
	// The rest fold into the transmission's record.
	k := txKey{dir: e.Dir, id: e.ID, attempt: e.Attempt}
	r := c.tx[k]
	switch e.Kind {
	case core.EvSrcTx:
		r.srcTx = true
	case core.EvDstRecvDirect:
		r.dstDirect = true
	case core.EvDstRecvRelay:
		r.relayRecv++
	case core.EvAuxHeard:
		r.auxHeard++
	case core.EvAuxRelayed:
		r.relays++
	case core.EvAuxDeclined:
		r.declined++
	}
	c.tx[k] = r
}

// CoordStats are the Table 1 / Table 2 statistics for one direction.
type CoordStats struct {
	SourceTransmissions int
	// A2: mean auxiliaries hearing a source transmission.
	MeanAuxHeard float64
	// A3: mean auxiliaries hearing the transmission but not its ack
	// (contenders: they went on to a relay decision).
	MeanAuxContending float64
	// B1: fraction of source transmissions that reached the destination
	// directly.
	DirectSuccess float64
	// B2: relayed transmissions for already-successful source
	// transmissions, per successful source transmission (false positives).
	FalsePositiveRate float64
	// B3: mean relays when a false positive occurs.
	MeanRelaysOnFP float64
	// C2: fraction of failed source transmissions overheard by ≥1 aux.
	FailedOverheard float64
	// C3: fraction of failed source transmissions relayed by nobody
	// (false negatives).
	FalseNegativeRate float64
	// FalseNegativeGivenHeard conditions C3 on at least one auxiliary
	// having overheard the failed transmission — coordination failures as
	// opposed to coverage failures. Used for Table 2 on the sparse
	// DieselNet traces.
	FalseNegativeGivenHeard float64
	// C4: fraction of relayed packets that reached the destination.
	RelayDelivery float64
	// DeterministicFPRate: the counterfactual false-positive rate had
	// every contending auxiliary relayed deterministically (the §5.5
	// "without probabilistic relaying" comparison).
	DeterministicFPRate float64
	// AllHeardFPRate: the counterfactual with no coordination at all —
	// every auxiliary that heard the packet relays.
	AllHeardFPRate float64
}

// Stats reduces the per-transmission records for one direction.
func (c *Collector) Stats(dir core.Direction) CoordStats {
	var s CoordStats
	var auxHeardSum, contendSum int
	var success, fail int
	var fpRelays, fpEvents int
	var failOverheard, failNoRelay, failHeardNoRelay int
	var relays, relayRecv int
	var detFP, allFP int
	for k, r := range c.tx {
		if k.dir != dir || !r.srcTx {
			continue
		}
		s.SourceTransmissions++
		auxHeardSum += r.auxHeard
		contend := r.relays + r.declined
		contendSum += contend
		relays += r.relays
		relayRecv += r.relayRecv
		if r.dstDirect {
			success++
			fpRelays += r.relays
			if r.relays > 0 {
				fpEvents++
			}
			detFP += contend
			allFP += r.auxHeard
		} else {
			fail++
			if r.auxHeard > 0 {
				failOverheard++
				if r.relays == 0 {
					failHeardNoRelay++
				}
			}
			if r.relays == 0 {
				failNoRelay++
			}
		}
	}
	n := float64(s.SourceTransmissions)
	if n == 0 {
		return s
	}
	s.MeanAuxHeard = float64(auxHeardSum) / n
	s.MeanAuxContending = float64(contendSum) / n
	s.DirectSuccess = float64(success) / n
	if success > 0 {
		s.FalsePositiveRate = float64(fpRelays) / float64(success)
		s.DeterministicFPRate = float64(detFP) / float64(success)
		s.AllHeardFPRate = float64(allFP) / float64(success)
	}
	if fpEvents > 0 {
		s.MeanRelaysOnFP = float64(fpRelays) / float64(fpEvents)
	}
	if fail > 0 {
		s.FailedOverheard = float64(failOverheard) / float64(fail)
		s.FalseNegativeRate = float64(failNoRelay) / float64(fail)
	}
	if failOverheard > 0 {
		s.FalseNegativeGivenHeard = float64(failHeardNoRelay) / float64(failOverheard)
	}
	if relays > 0 {
		rd := float64(relayRecv) / float64(relays)
		if rd > 1 {
			rd = 1 // duplicate relay receptions across attempts
		}
		s.RelayDelivery = rd
	}
	return s
}

// MedianAuxCount returns the median sampled auxiliary-set size (A1).
func (c *Collector) MedianAuxCount() int {
	if len(c.AuxCountSamples) == 0 {
		return 0
	}
	cp := append([]int(nil), c.AuxCountSamples...)
	// insertion sort: samples are few.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// Efficiency computes Fig 12's metric for one direction: application
// packets delivered per transmission on the vehicle–BS wireless medium.
// Upstream relays ride the backplane and therefore do not count against
// the wireless medium; downstream relays do.
func (c *Collector) Efficiency(dir core.Direction) float64 {
	d := int(dir)
	tx := c.SrcTxAir[d] + c.RelayAir[d]
	if tx == 0 {
		return 0
	}
	return float64(c.Deliver[d]) / float64(tx)
}

// PerfectRelayEfficiency estimates the Fig 12 PerfectRelay oracle from
// the ViFi packet logs, following §5.4: exactly one relay happens, and
// only when the destination missed the source transmission. Upstream, a
// packet is delivered if at least one basestation heard it. Downstream,
// the relay succeeds with ViFi's observed relay delivery rate when ViFi
// relayed, and is assumed successful when ViFi did not relay.
func (c *Collector) PerfectRelayEfficiency(dir core.Direction) float64 {
	// Integer counters only inside the map loop: map iteration order is
	// random, and accumulating floats in it would make the result depend
	// on the iteration (equal seeds could render differently).
	var srcTx, sure, rated, relayTx int
	relayRate := c.Stats(dir).RelayDelivery
	for k, r := range c.tx {
		if k.dir != dir || !r.srcTx {
			continue
		}
		srcTx++
		if r.dstDirect {
			sure++
			continue
		}
		if r.auxHeard == 0 {
			continue
		}
		// The oracle relays exactly once.
		relayTx++
		if dir == core.Up {
			sure++ // backplane relay, reliable, not on the medium
		} else {
			if r.relays > 0 {
				rated++
			} else {
				sure++
			}
		}
	}
	tx := srcTx
	if dir == core.Down {
		tx += relayTx
	}
	if tx == 0 {
		return 0
	}
	return (float64(sure) + relayRate*float64(rated)) / float64(tx)
}
