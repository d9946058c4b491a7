// Package core implements ViFi, the paper's primary contribution: a
// diversity-based link-layer handoff protocol for vehicular WiFi clients
// (§4). A vehicle designates the best basestation as its anchor (by BRR)
// and every other audible basestation as an auxiliary. Auxiliaries that
// opportunistically overhear a data frame but not its acknowledgment relay
// it toward the destination with an independently computed probability
// chosen so that the expected number of relays per packet is one,
// favouring auxiliaries better connected to the destination (Eq 1–3).
// Newly appointed anchors salvage recent unacknowledged downstream packets
// from their predecessor over the backplane (§4.5), and sources retransmit
// using an adaptive 99th-percentile acknowledgment-delay timer (§4.7).
//
// The same engine also runs the paper's baseline: BRR, the hard-handoff
// protocol with auxiliary functionality switched off (§5.1), and the
// alternative coordinator formulations ¬G1/¬G2/¬G3 used in §5.5.1.
package core

import (
	"fmt"
	"math"
	"time"
)

// CoordinatorKind selects the relay-probability formulation.
type CoordinatorKind int

// Relay-probability formulations evaluated in the paper.
const (
	// CoordViFi is Eq 1–3: expected relays = 1, preference ∝ p(B→d).
	CoordViFi CoordinatorKind = iota
	// CoordNotG1 ignores other auxiliaries: r = p(B→d).
	CoordNotG1
	// CoordNotG2 ignores connectivity to the destination: r = 1/Σci.
	CoordNotG2
	// CoordNotG3 targets one expected *delivery* instead of one expected
	// relay (the §5.5.1 optimization formulation).
	CoordNotG3
)

// String implements fmt.Stringer.
func (c CoordinatorKind) String() string {
	switch c {
	case CoordViFi:
		return "ViFi"
	case CoordNotG1:
		return "¬G1"
	case CoordNotG2:
		return "¬G2"
	case CoordNotG3:
		return "¬G3"
	default:
		return "coord(?)"
	}
}

// Config holds what the paper's evaluation varies — the ViFi arms
// (relaying, salvaging, the coordinator; §5.1, §5.5.1), retransmissions
// (off for the §5.2 link-layer probes) and the ablations' retx percentile
// and salvage window — plus the beacon period and the estimator's EWMA
// factor and staleness, which the benchmark's probes read. The protocol's
// other timers and bounds are the constants below. DefaultConfig gives
// the paper's settings.
type Config struct {
	// Mode switches.
	EnableRelay   bool // auxiliary relaying (off = the BRR baseline)
	EnableSalvage bool // anchor-to-anchor salvaging (§4.5)
	Coordinator   CoordinatorKind

	// BeaconInterval is the beacon period: every MAC the cell builds
	// beacons at it, and the probability window expects probWindow/it
	// beacons per sender. 100 ms.
	BeaconInterval time.Duration
	// ProbAlpha is the EWMA factor for reception probabilities (0.5).
	ProbAlpha float64
	// ProbStale ages out reception estimates and auxiliary membership.
	ProbStale time.Duration

	// MaxRetx is the number of link-layer retransmissions after the first
	// attempt (§5.3: "at most three times"). 0 disables retransmission.
	MaxRetx int
	// RetxPercentile picks the acknowledgment-delay quantile used as the
	// retransmission timer (§4.7: the 99th).
	RetxPercentile float64

	// SalvageWindow bounds how old an unacknowledged downstream packet may
	// be and still be salvaged (§4.5: one second, from the minimum TCP
	// RTO). It is capped at salvageCacheTTL (5 s), how long an anchor
	// keeps a downstream packet at all: a longer window salvages no more.
	SalvageWindow time.Duration
}

// The protocol's fixed timers and bounds.
const (
	// probWindow is the window over which beacon reception ratios are
	// computed before EWMA folding (§4.6: per-second).
	probWindow = time.Second
	// ackWait is how long an auxiliary waits to overhear an acknowledgment
	// before its relay timer may consider the packet. It is positive, so a
	// relay-timer instant that coincides with a reception is skipped: the
	// new packet's age 0 is below it.
	ackWait = 6 * time.Millisecond
	// relayCheck is the period of the auxiliary relay timer; each firing
	// is jittered so auxiliaries stay desynchronized (§4.4).
	relayCheck = 4 * time.Millisecond
	// pendingCap bounds the per-auxiliary overheard-packet buffer.
	pendingCap = 128
	// retxInit seeds the retransmission timer before enough samples exist;
	// retxMin and retxMax clamp it (§4.7).
	retxInit = 100 * time.Millisecond
	retxMin  = 60 * time.Millisecond
	retxMax  = 500 * time.Millisecond
)

// dedupHorizon is how long a node's acked table and the gateway's dedup
// table keep a packet past its last use. A source names a packet for at
// most (MaxRetx+1)·retxMax after its first attempt, an auxiliary relays a
// copy within pendTTL ≤ retxMax, and doubling covers MAC queues and the
// backplane: 4 s at MaxRetx 3, 1 s at 0. In 300 s runs of seven presets no
// use came over 2.10 s after the last (0.95 s at the gateway).
func (c Config) dedupHorizon() time.Duration {
	return 2 * time.Duration(c.MaxRetx+1) * retxMax
}

// Validate reports a configuration the protocol cannot run or would run
// misleadingly: a beacon period or estimate lifetime that is not
// positive, an EWMA factor outside (0, 1], a coordinator the relay
// switch does not know, a retransmission count outside the attempt
// counter's [0, 255], a retransmission percentile outside [0, 1], or a
// negative salvage window.
func (c Config) Validate() error {
	switch {
	case c.BeaconInterval <= 0:
		return fmt.Errorf("core: beacon interval %v is not positive", c.BeaconInterval)
	case c.ProbStale <= 0:
		return fmt.Errorf("core: ProbStale %v is not positive", c.ProbStale)
	case !(c.ProbAlpha > 0 && c.ProbAlpha <= 1):
		return fmt.Errorf("core: ProbAlpha %v is outside (0, 1]", c.ProbAlpha)
	case c.Coordinator < CoordViFi || c.Coordinator > CoordNotG3:
		return fmt.Errorf("core: unknown coordinator %d", int(c.Coordinator))
	case c.MaxRetx < 0 || c.MaxRetx > math.MaxUint8:
		return fmt.Errorf("core: MaxRetx %d is outside [0, 255]", c.MaxRetx)
	case !(c.RetxPercentile >= 0 && c.RetxPercentile <= 1):
		return fmt.Errorf("core: RetxPercentile %v is outside [0, 1]", c.RetxPercentile)
	case c.SalvageWindow < 0:
		return fmt.Errorf("core: SalvageWindow %v is negative", c.SalvageWindow)
	}
	return nil
}

// DefaultConfig returns the paper's protocol settings.
func DefaultConfig() Config {
	return Config{
		EnableRelay:   true,
		EnableSalvage: true,
		Coordinator:   CoordViFi,

		BeaconInterval: 100 * time.Millisecond,
		ProbAlpha:      0.5,
		ProbStale:      3 * time.Second,

		MaxRetx:        3,
		RetxPercentile: 0.99,

		SalvageWindow: time.Second,
	}
}

// BRRConfig returns the hard-handoff baseline: the same framework with
// auxiliary relaying and salvaging switched off (§5.1).
func BRRConfig() Config {
	c := DefaultConfig()
	c.EnableRelay = false
	c.EnableSalvage = false
	return c
}

// DiversityOnlyConfig returns ViFi with salvaging disabled — the middle
// bar of Fig 9a, used to isolate the two mechanisms.
func DiversityOnlyConfig() Config {
	c := DefaultConfig()
	c.EnableSalvage = false
	return c
}

// ConfigByName resolves a protocol name as the tools spell it: vifi (the
// paper's settings), brr (hard handoff) or diversity-only (no salvaging).
func ConfigByName(name string) (Config, error) {
	switch name {
	case "vifi":
		return DefaultConfig(), nil
	case "brr":
		return BRRConfig(), nil
	case "diversity-only":
		return DiversityOnlyConfig(), nil
	default:
		return Config{}, fmt.Errorf("unknown protocol %q (vifi, brr, diversity-only)", name)
	}
}
