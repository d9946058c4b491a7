// Package workload attaches application sessions to vehicles. The paper's
// headline claims are application-level — ViFi roughly doubles TCP
// transfer throughput and halves VoIP disruptions versus hard handoff
// (§5.3) — so fleet experiments must measure applications, not just link
// delivery. A Driver is one vehicle's session: CBR (the constant-rate
// probe workload), TCP (the §5.3.1 repeated-transfer loop), VoIP (the
// §5.3.2 G.729 call with the disruption classifier) or Web (request/
// response bursts). The driver is the loop: TCP and Web decide what to
// fetch next and run each fetch on the one mini-TCP engine (transfer),
// and internal/transport below them is only the mini-TCP itself.
// SplitKinds assigns drivers per vehicle for mixed fleets from a
// deterministic seeded split.
//
// Determinism contract (DESIGN.md §8): drivers draw randomness only from
// the *sim.RNG handed to their constructor. Callers label that stream
// with the scenario's canonical Spec.Key() plus the vehicle index, so
// equal (seed, spec) fleets replay byte-identically and two specs never
// perturb each other. Driver dispatch — the per-delivery path from the
// gateway's per-vehicle hook table into DeliverUp/DeliverDown — must not
// allocate; alloc_test.go guards it.
package workload

import (
	"fmt"
	"sort"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/transport"
	"github.com/vanlan/vifi/internal/voip"
)

// Kind selects an application driver family.
type Kind int

// Driver families. Mixed is an assignment policy, not a driver: it
// resolves to one of the four concrete kinds per vehicle via SplitKinds.
const (
	CBRKind Kind = iota
	TCPKind
	VoIPKind
	WebKind
	MixedKind

	// numKinds counts the concrete kinds (Mixed excluded).
	numKinds = int(MixedKind)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CBRKind:
		return "cbr"
	case TCPKind:
		return "tcp"
	case VoIPKind:
		return "voip"
	case WebKind:
		return "web"
	case MixedKind:
		return "mixed"
	default:
		return "app(?)"
	}
}

// ParseKind resolves an app name from the scenario spec syntax.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "cbr":
		return CBRKind, nil
	case "tcp":
		return TCPKind, nil
	case "voip":
		return VoIPKind, nil
	case "web":
		return WebKind, nil
	case "mixed":
		return MixedKind, nil
	default:
		return 0, fmt.Errorf("workload: unknown app %q (cbr, tcp, voip, web, mixed)", s)
	}
}

// Port is the datagram service one vehicle's driver runs on: SendUp
// transmits from the vehicle toward the gateway (through the current
// anchor), SendDown from the gateway toward the vehicle. Both report
// whether the datagram was accepted (a vehicle without an anchor rejects,
// which the application experiences as loss). Both retain nothing of the
// payload past their return (transport.SendFunc's contract), so the CBR
// and VoIP drivers build every packet in one buffer of their own.
type Port struct {
	K        *sim.Kernel
	SendUp   transport.SendFunc
	SendDown transport.SendFunc
}

// Driver is one vehicle's application session. Start schedules the
// session's traffic (call once, while the kernel is still before the
// session start); DeliverDown/DeliverUp feed payloads delivered at the
// vehicle and at the gateway; Stop finalizes and returns the session's
// metrics (idempotent).
type Driver interface {
	Start()
	DeliverDown(payload []byte)
	DeliverUp(payload []byte)
	Stop() Metrics

	// Live reports the session's rolling progress so far. It is a pure
	// read for the observability layer — callable at any simulation time,
	// allocation-free, and without effect on the final Metrics.
	Live() LiveStats
}

// LiveStats is a driver's rolling mid-run progress: payload deliveries
// recorded (both directions), and completed/aborted transfer units
// (TCP transfers, web pages). Fields an app does not track stay zero.
type LiveStats struct {
	Delivered int
	Completed int
	Aborted   int
}

// Config parameterizes driver construction for a fleet.
type Config struct {
	// CBR: one CBRBytes-sized packet each way per CBRSlot.
	CBRSlot  time.Duration
	CBRBytes int

	// TCP: the §5.3.1 repeated-transfer workload (transfer size, stall
	// abort, inter-transfer gap).
	TCP TCPConfig

	// Web: request/response bursts over mini-TCP.
	Web WebConfig

	// Mix weights the cbr:tcp:voip:web split for MixedKind (SplitKinds).
	Mix [4]int
}

// DefaultConfig returns the paper-shaped applications: the fleet probe
// CBR (500 bytes per 200 ms slot each way), the 10 KB repeated-transfer
// TCP loop, G.729 VoIP, 10 KB web pages, and an even mixed split.
func DefaultConfig() Config {
	return Config{
		CBRSlot:  200 * time.Millisecond,
		CBRBytes: 500,
		TCP:      DefaultTCPConfig(),
		Web:      DefaultWebConfig(),
		Mix:      [4]int{1, 1, 1, 1},
	}
}

// New builds one vehicle's driver. kind must be a concrete kind (resolve
// MixedKind through SplitKinds first). veh tags CBR payloads and
// metrics; start/end bound the session in simulation time; rng feeds the
// driver's random draws (Web page shapes) and must be a stream dedicated
// to this driver.
func New(k *sim.Kernel, cfg Config, kind Kind, port Port, veh int, start, end time.Duration, rng *sim.RNG) Driver {
	switch kind {
	case CBRKind:
		return NewCBR(k, port, veh, start, end, cfg.CBRSlot, cfg.CBRBytes)
	case TCPKind:
		return NewTCP(k, cfg.TCP, port, veh, start, end)
	case VoIPKind:
		return NewVoIP(k, port, veh, start, end)
	case WebKind:
		return NewWeb(k, cfg.Web, port, veh, start, end, rng)
	default:
		panic(fmt.Sprintf("workload: New on non-concrete kind %v", kind))
	}
}

// span is a session's scheduled length: end − start, zero for a vehicle
// that departs after the run's end.
func span(start, end time.Duration) time.Duration {
	return max(end-start, 0)
}

// SplitKinds deterministically assigns one concrete kind per vehicle
// from integer weights (cbr:tcp:voip:web). Counts follow largest-
// remainder apportionment of the weights; placement is a seeded shuffle,
// so which vehicle runs which app is a pure function of the rng stream.
func SplitKinds(rng *sim.RNG, weights [4]int, n int) []Kind {
	total := 0
	for _, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
	}
	if total == 0 {
		weights, total = [4]int{1, 1, 1, 1}, 4
	}
	counts := [4]int{}
	assigned := 0
	type rem struct {
		kind int
		frac float64
	}
	rems := make([]rem, 0, 4)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		exact := float64(n) * float64(w) / float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems = append(rems, rem{kind: i, frac: exact - float64(counts[i])})
	}
	// Distribute the remainder to the largest fractions; ties break on
	// kind order for determinism.
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].kind]++
		assigned++
	}
	out := make([]Kind, 0, n)
	for kind, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, Kind(kind))
		}
	}
	perm := rng.Perm(n)
	shuffled := make([]Kind, n)
	for i, p := range perm {
		shuffled[i] = out[p]
	}
	return shuffled
}

// Bind wires a driver to fleet slot i of the cell: the vehicle's
// delivery callback feeds DeliverDown, the gateway's per-vehicle hook
// feeds DeliverUp. The closures are one-time setup; the per-delivery
// dispatch itself stays allocation-free.
func Bind(c *core.Cell, i int, d Driver) {
	c.HookVehicle(i,
		func(id frame.PacketID, p []byte, from uint16) { d.DeliverDown(p) },
		func(id frame.PacketID, p []byte, from uint16) { d.DeliverUp(p) })
}

// CellPort returns the datagram port for fleet slot i of the cell. The
// downstream leg goes through the gateway serving the slot's district.
// Both legs copy before returning: the vehicle's SendData into a pooled
// buffer of its own, the gateway's Send by marshaling a frame.
func CellPort(c *core.Cell, i int) Port {
	v := c.Vehicles[i]
	addr := v.Addr()
	gw := c.GatewayFor(i)
	return Port{
		K:        c.K,
		SendUp:   v.SendData,
		SendDown: func(p []byte) bool { return gw.Send(addr, p) },
	}
}

// --- Metrics ---------------------------------------------------------------

// Metrics is one driver's final session report. Only the fields of the
// session's App are populated.
type Metrics struct {
	App     Kind
	Vehicle int

	// Span is the session's scheduled length (end − start): the time the
	// driver was actually active, which departure stagger makes shorter
	// than the run for late vehicles. Rates normalize over it.
	Span time.Duration

	// CBR: per-slot delivery outcomes for both directions.
	Slot     time.Duration
	Up, Down []bool

	// TCP and Web: completed transfer (page) times in seconds, plus the
	// stall-rule abort count.
	Completed    int
	Aborted      int
	TransferSecs []float64

	// VoIP: the §5.3.2 E-model score with the MoS<2 disruption classifier.
	VoIP voip.Quality
}

// AppSummary aggregates the metrics of every vehicle running one app.
type AppSummary struct {
	Vehicles int

	// ActiveMinutes is the summed session span across these vehicles —
	// the denominator for fleet-wide per-minute rates.
	ActiveMinutes float64

	// CBR.
	Slots, UpDelivered, DownDelivered int

	// TCP/Web.
	Completed, Aborted int
	MedianTransferSec  float64
	P90TransferSec     float64

	// VoIP. DisruptionsPerMin normalizes disruptions over scored call
	// time (3 s windows); MeanMoS is window-weighted across the fleet.
	CallWindows       int
	Disruptions       int
	DisruptionsPerMin float64
	MeanMoS           float64
	MedianSessionSec  float64
}

// Summary is the fleet-wide aggregation, one AppSummary per concrete
// kind (fixed order, so reports and goldens are deterministic).
type Summary struct {
	Vehicles int
	Apps     [numKinds]AppSummary
}

// App returns the aggregation for one concrete kind. Non-concrete kinds
// (Mixed) have no aggregation of their own and read as zero.
func (s *Summary) App(k Kind) AppSummary {
	if int(k) < 0 || int(k) >= numKinds {
		return AppSummary{}
	}
	return s.Apps[int(k)]
}

// Aggregate pools per-vehicle metrics into the fleet summary.
func Aggregate(ms []Metrics) Summary {
	var sum Summary
	sum.Vehicles = len(ms)
	transfers := make([][]float64, numKinds)
	sessions := make([][]float64, numKinds)
	mosWeighted := make([]float64, numKinds)
	for _, m := range ms {
		if int(m.App) < 0 || int(m.App) >= numKinds {
			continue
		}
		a := &sum.Apps[int(m.App)]
		a.Vehicles++
		a.ActiveMinutes += m.Span.Minutes()
		a.Slots += len(m.Up)
		for i := range m.Up {
			if m.Up[i] {
				a.UpDelivered++
			}
			if m.Down[i] {
				a.DownDelivered++
			}
		}
		a.Completed += m.Completed
		a.Aborted += m.Aborted
		transfers[m.App] = append(transfers[m.App], m.TransferSecs...)
		a.CallWindows += m.VoIP.Windows
		a.Disruptions += m.VoIP.Interruptions
		mosWeighted[m.App] += m.VoIP.MeanMoS * float64(m.VoIP.Windows)
		sessions[m.App] = append(sessions[m.App], m.VoIP.SessionLens...)
	}
	for k := 0; k < numKinds; k++ {
		a := &sum.Apps[k]
		a.MedianTransferSec = quantile(transfers[k], 0.5)
		a.P90TransferSec = quantile(transfers[k], 0.9)
		if a.CallWindows > 0 {
			minutes := float64(a.CallWindows) * voip.DefaultWindow.Minutes()
			a.DisruptionsPerMin = float64(a.Disruptions) / minutes
			a.MeanMoS = mosWeighted[k] / float64(a.CallWindows)
		}
		a.MedianSessionSec = stats.TimeWeightedMedian(sessions[k])
	}
	return sum
}

// quantile returns the interpolated q-quantile of vs (0 when empty)
// without mutating the input, with the same semantics as every other
// percentile in the repository (stats.Sample.Quantile).
func quantile(vs []float64, q float64) float64 {
	s := stats.NewSample(len(vs))
	s.AddAll(vs...)
	return s.Quantile(q)
}
