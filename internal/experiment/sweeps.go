package experiment

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/workload"
)

// This file is the table of city-scale sweeps (DESIGN.md §7–§10): nine
// scale-* reports over synthetic deployments from internal/scenario, each
// a row of sweeps — a preset, the application it pins, its arms and a row
// renderer — run by the one scaffold (sweep).run. They probe the regime
// the ROADMAP's north star cares about — many vehicles contending for one
// channel across a large deployment — rather than any figure of the
// paper. Adding a sweep is adding a row here and a golden (TestReports
// holds the two together).

// sweep is one scale-* report as data.
type sweep struct {
	id, title string
	header    []string
	// preset is the default base deployment; Options.Scenario overrides
	// it. app is the measured application, pinned on whichever base runs.
	preset string
	app    workload.Kind
	arms   []sweepArm
	// row renders one arm's run under header.
	row func(label string, run *FleetAppRun) []string
	// notes follow the "scenario base" note under the table.
	notes []string
}

// sweepArm is one row of a sweep: set turns the base spec into the arm's.
// shards pins the arm's shard count; 0 takes Options.Shards, and only the
// two identity sweeps — whose axis it is — pin their own.
type sweepArm struct {
	label  string
	set    func(*scenario.Spec)
	shards int
}

// axis builds one arm per value of an integer axis, labelled "name=value".
func axis(name string, values []int, set func(*scenario.Spec, int)) []sweepArm {
	arms := make([]sweepArm, len(values))
	for i, v := range values {
		arms[i] = sweepArm{
			label: fmt.Sprintf("%s=%d", name, v),
			set:   func(s *scenario.Spec) { set(s, v) },
		}
	}
	return arms
}

func setVehicles(s *scenario.Spec, n int) { s.Vehicles = n }

// forceApp pins a sweep's measured application on its base spec and
// clears the knobs that app ignores, so meaningless -scenario overrides
// neither split the run-cache nor leak into the scenario-base note.
func forceApp(s scenario.Spec, app workload.Kind) scenario.Spec {
	s.App = app
	if app != workload.TCPKind {
		s.AppXferBytes = 0
	}
	if app != workload.WebKind {
		s.AppThink = 0
	}
	if app != workload.MixedKind {
		s.AppMix = [4]int{}
	}
	return s
}

// run is the scaffold every sweep shares: resolve the base scenario, pin
// the measured app, validate every arm's spec — a -scenario override can
// make a single arm invalid (a one-vehicle fleet on a four-district city),
// and that is the caller's error to read, not an engine goroutine's panic
// — then schedule one memoized fleet job per arm and render rows, then
// notes, in declaration order. Nothing is scheduled unless every arm is
// valid.
func (s sweep) run(o Options) (*Report, error) {
	src := cmp.Or(o.Scenario, s.preset)
	base, err := scenario.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s base %q: %w", s.id, src, err)
	}
	base = forceApp(base, s.app)
	specs := make([]scenario.Spec, len(s.arms))
	for i, arm := range s.arms {
		specs[i] = base
		arm.set(&specs[i])
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("experiment: %s arm %q on base %q: %w", s.id, arm.label, src, err)
		}
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(240)) * time.Second
	futs := make([]Future[*FleetAppRun], len(s.arms))
	for i, arm := range s.arms {
		futs[i] = eng.FleetApp(o.Seed, specs[i], core.DefaultConfig(), dur, cmp.Or(arm.shards, o.Shards))
	}
	r := &Report{ID: s.id, Title: s.title, Header: s.header}
	for i, arm := range s.arms {
		r.AddRow(s.row(arm.label, futs[i].Wait())...)
	}
	r.AddNote("scenario base: %s", base.Key())
	r.Notes = append(r.Notes, s.notes...)
	return r, nil
}

// sweepByID finds a table row.
func sweepByID(id string) (sweep, bool) {
	for _, s := range sweeps {
		if s.id == id {
			return s, true
		}
	}
	return sweep{}, false
}

// appFleets is the fleet-size axis of the application sweeps. Smaller
// than the CBR sweep's top arm: per-vehicle transport state makes these
// runs heavier, and the application knee appears well before 24 vehicles.
var appFleets = []int{1, 4, 8, 16}

// scaleRadioVehicles is the fixed probe fleet shared by every scale-radio
// and scale-protocol arm.
const scaleRadioVehicles = 16

// scaleRadioArms is the total-radio axis (basestations + vehicles), over
// which a per-transmission O(N) sweep would turn quadratic. The
// 10000-radio arm is the city-scale endpoint the protocol-layer index
// (DESIGN.md §6) is sized against.
var scaleRadioArms = []int{100, 250, 500, 1000, 2000, 10000}

// scaleProtocolArms is a deliberate subset of scaleRadioArms built by the
// shared setScaleRadioArm, so any arm both sweeps name resolves to the
// same run-cache entry and is simulated once per engine.
var scaleProtocolArms = []int{500, 2000, 10000}

// scaleRadioRegion returns the region dimensions that keep basestation
// density constant at the grid-city reference (54 BSes per 2400×1500 m)
// as the BS count grows — constant density keeps the neighbor count per
// transmission flat across arms, which is exactly what separates
// O(N·neighbors) from O(N²).
func scaleRadioRegion(bs int) (w, h float64) {
	f := math.Sqrt(float64(bs) / 54.0)
	return math.Round(2400 * f), math.Round(1500 * f)
}

// setScaleRadioArm pins one arm's deployment: the fixed probe fleet, n−16
// basestations, and a constant-density region (a -scenario override keeps
// everything else).
func setScaleRadioArm(s *scenario.Spec, n int) {
	s.Vehicles = scaleRadioVehicles
	s.BS = n - scaleRadioVehicles
	s.Width, s.Height = scaleRadioRegion(s.BS)
}

// scaleFaultsVehicles is the fixed VoIP fleet shared by every scale-faults
// arm, so degradation is attributable to the injected faults, not to
// changed contention.
const scaleFaultsVehicles = 16

// crashArm is one point of the fault-frequency axis: the fixed fleet under
// a per-basestation crash process ("" = the un-faulted baseline). Every
// basestation runs its own Poisson process, so even short runs see outages
// on a city grid.
func crashArm(label, faults string) sweepArm {
	return sweepArm{label: label, set: func(s *scenario.Spec) {
		s.Vehicles = scaleFaultsVehicles
		s.Faults = faults
	}}
}

// chaosFaults is the multi-layer fault mix of the sharded identity
// contract: basestation crash/restart, backplane brownouts with loss
// (exercising the per-port coin streams), and vehicle blackouts.
const chaosFaults = "bs:mtbf=2m0s:mttr=10s;bp:mtbf=2m0s:mttr=15s:rate=0.25:delay=20ms:loss=0.05;blackout:mtbf=1m30s:mttr=8s"

// identityArm pairs a shard (or halo lane) count with a fault variant. The
// chaos arms pin that fault injection — depth counters, cold restarts,
// radio mutes voiding in-flight frames, brownout coins — stays
// deterministic across the partition too.
func identityArm(label, faults string, shards int) sweepArm {
	return sweepArm{label: label, shards: shards, set: func(s *scenario.Spec) { s.Faults = faults }}
}

// linkHeader labels the link-delivery columns. "rx collisions" are
// per-receiver collision events (one transmission can collide at many
// receivers), so the rate can exceed 1000 — it is a congestion signal, not
// a fraction.
var linkHeader = []string{"arm", "BSes", "vehicles", "delivered/s", "delivery", "median session (s)", "interrupts/veh·h", "rx collisions/1k tx"}

// linkRow renders a CBR fleet's slot-level link metrics.
func linkRow(label string, run *FleetAppRun) []string {
	link := run.Link
	colPerK := 0.0
	if run.Transmissions > 0 {
		colPerK = 1000 * float64(run.Collisions) / float64(run.Transmissions)
	}
	return []string{
		label,
		fmt.Sprintf("%d", run.BSCount),
		fmt.Sprintf("%d", len(link.Up)),
		fmt.Sprintf("%.1f", link.DeliveredPerSec()),
		pct(link.DeliveryRatio()),
		fmt.Sprintf("%.0f", link.MedianSession(time.Second, 0.5)),
		fmt.Sprintf("%.0f", link.Interruptions()),
		fmt.Sprintf("%.0f", colPerK),
	}
}

// occupancyRow renders protocol-state occupancy sampled at run end: how
// many peers each basestation holds fresh, how many entries its beacon
// report carries, how large its radio-grid neighborhood is, and how many
// auxiliaries each vehicle designates.
func occupancyRow(label string, run *FleetAppRun) []string {
	return []string{
		label,
		fmt.Sprintf("%d", run.BSCount),
		fmt.Sprintf("%d", run.Vehicles),
		fmt.Sprintf("%d", run.Transmissions),
		f1(run.FreshPeersBS),
		f1(run.ReportBS),
		f1(run.GridNbrsBS),
		f2(run.AuxPerVeh),
	}
}

func tcpRow(label string, run *FleetAppRun) []string {
	a := run.Apps.App(workload.TCPKind)
	// Rate over summed session time, not wall time: departure stagger
	// shortens late vehicles' sessions, and dividing by the full run
	// would add a spurious downward slope as the fleet grows.
	perVehMin := 0.0
	if a.ActiveMinutes > 0 {
		perVehMin = float64(a.Completed) / a.ActiveMinutes
	}
	return []string{
		label,
		fmt.Sprintf("%d", run.BSCount),
		fmt.Sprintf("%d", a.Vehicles),
		fmt.Sprintf("%d", a.Completed),
		fmt.Sprintf("%d", a.Aborted),
		f2(a.MedianTransferSec),
		f2(a.P90TransferSec),
		f1(perVehMin),
	}
}

func voipRow(label string, run *FleetAppRun) []string {
	a := run.Apps.App(workload.VoIPKind)
	return []string{
		label,
		fmt.Sprintf("%d", run.BSCount),
		fmt.Sprintf("%d", a.Vehicles),
		f2(a.MeanMoS),
		fmt.Sprintf("%.0f", a.MedianSessionSec),
		fmt.Sprintf("%d", a.Disruptions),
		f2(a.DisruptionsPerMin),
	}
}

// faultsRow renders availability, fault-attributable delivery gaps and
// post-restore recovery time next to the call quality scale-app-voip
// measures unfaulted.
func faultsRow(label string, run *FleetAppRun) []string {
	a := run.Apps.App(workload.VoIPKind)
	row := []string{label, "-", "-", "-", "-", "-"}
	if f := run.Faults; f != nil {
		row = []string{
			label,
			fmt.Sprintf("%d", f.Windows[fault.LayerBS]),
			f1(f.DownSec[fault.LayerBS]),
			pct1(f.Availability),
			fmt.Sprintf("%d/%d", f.GapBinsFault, f.GapBins),
			f2(f.RecoveryMeanSec),
		}
	}
	return append(row, f2(a.MeanMoS), f2(a.DisruptionsPerMin))
}

var identityHeader = []string{"arm", "BSes", "vehicles", "delivered/s", "delivery",
	"median session (s)", "avail", "recovery (s)"}

func identityRow(label string, run *FleetAppRun) []string {
	avail, rec := "-", "-"
	if f := run.Faults; f != nil {
		avail = pct1(f.Availability)
		rec = f2(f.RecoveryMeanSec)
	}
	return []string{
		label,
		fmt.Sprintf("%d", run.BSCount),
		fmt.Sprintf("%d", run.Vehicles),
		f1(run.DeliveredPerSec()),
		pct(run.DeliveryRatio()),
		f1(run.MedianSession(time.Second, 0.5)),
		avail, rec,
	}
}

var sweeps = []sweep{
	// §7 — link delivery under a fleet-wide constant-rate workload: one
	// 500-byte packet each way per 200 ms slot, and 5 pkt/s per direction
	// per vehicle drives a 24-vehicle fleet to the channel's saturation
	// knee. These sweeps measure link delivery, so the app is pinned to CBR.
	{
		// Aggregate throughput, delivery ratio and session quality as more
		// vehicles share one channel; grid-city is 54 basestations.
		id:     "scale-fleet",
		title:  "Fleet-size scaling on a generated city grid",
		header: linkHeader,
		preset: "grid-city",
		app:    workload.CBRKind,
		arms:   axis("fleet", []int{1, 4, 8, 16, 24}, setVehicles),
		row:    linkRow,
		notes:  []string{"expected shape: aggregate delivered/s grows then saturates at the channel knee; per-vehicle delivery and session length degrade as the fleet contends"},
	},
	{
		// Coverage and session quality versus infrastructure investment.
		// The default base runs 8 vehicles; a -scenario override keeps
		// whatever fleet size it asks for (only the BS count is swept).
		id:     "scale-density",
		title:  "Basestation-density scaling on a generated city grid",
		header: linkHeader,
		preset: "grid-city,vehicles=8",
		app:    workload.CBRKind,
		arms:   axis("bs", []int{14, 28, 54, 96}, func(s *scenario.Spec, n int) { s.BS = n }),
		row:    linkRow,
		notes:  []string{"expected shape: delivery ratio and session length improve with density until routes are fully covered, then flatten"},
	},
	{
		// The channel-layer stress test behind the spatial index (DESIGN.md
		// §6). Unlike scale-fleet, the offered application traffic is
		// pinned — the same 16-vehicle CBR fleet in every arm — and only
		// the radio population (and the region, at constant basestation
		// density) grows, so any super-linear wall-time growth is
		// attributable to per-transmission channel cost, not to added
		// workload.
		id:     "scale-radio",
		title:  "Radio-count scaling at fixed traffic on a generated metro grid",
		header: linkHeader,
		preset: "grid-metro",
		app:    workload.CBRKind,
		arms:   axis("radios", scaleRadioArms, setScaleRadioArm),
		row:    linkRow,
		notes: []string{
			"fixed 16-vehicle CBR traffic; only the radio population grows (region scaled for constant BS density) — per-transmission channel cost must track neighbor count, not radio count",
		},
	},
	{
		// The protocol-layer counterpart of scale-radio (DESIGN.md §6): the
		// same arms, read for the quantities the ViFi layer actually
		// iterates per beacon — fresh local peers, beacon report entries,
		// designated auxiliaries — against the radio-grid neighborhood they
		// are supposed to track. The tx column is the anchor showing the
		// contrast the sweep exists for: transmissions grow with the
		// population (every radio beacons), occupancy does not.
		id:    "scale-protocol",
		title: "Protocol-state occupancy vs radio population on a generated metro grid",
		header: []string{"arm", "BSes", "vehicles", "tx",
			"fresh peers/BS", "report entries/BS", "grid nbrs/BS", "aux/veh"},
		preset: "grid-metro",
		app:    workload.CBRKind,
		arms:   axis("radios", scaleProtocolArms, setScaleRadioArm),
		row:    occupancyRow,
		notes:  []string{"occupancy sampled once at run end; fresh peers and report entries must track the grid neighborhood (constant BS density), not the radio population — flat columns across a 20× population growth are the O(neighbors) beaconing contract"},
	},

	// §8 — what the paper's §5.3 actually evaluates, application metrics,
	// but under fleet contention: every vehicle runs its own session.
	{
		// §5.3.1: every vehicle runs its own 10 KB transfer loop.
		id:     "scale-app-tcp",
		title:  "TCP transfer scaling on a generated city grid",
		header: []string{"arm", "BSes", "vehicles", "completed", "aborted", "median xfer (s)", "p90 xfer (s)", "xfers/veh·min"},
		preset: "grid-city",
		app:    workload.TCPKind,
		arms:   axis("fleet", appFleets, setVehicles),
		row:    tcpRow,
		notes:  []string{"expected shape: median transfer time grows and per-vehicle completions fall as the fleet contends (§5.3.1 measured under contention)"},
	},
	{
		// §5.3.2: every vehicle holds a bidirectional G.729 call scored
		// with the E-model and the MoS<2 disruption classifier.
		id:     "scale-app-voip",
		title:  "VoIP call scaling on a generated city grid",
		header: []string{"arm", "BSes", "vehicles", "mean MoS", "median session (s)", "disruptions", "disrupt/call·min"},
		preset: "grid-city",
		app:    workload.VoIPKind,
		arms:   axis("fleet", appFleets, setVehicles),
		row:    voipRow,
		notes:  []string{"expected shape: disruptions per call-minute climb with fleet size as windows blow the 52 ms wireless budget (§5.3.2 under contention)"},
	},

	// §9 — resilience. Where the other sweeps show cost staying flat, this
	// one shows service degrading gracefully: every arm injects a seeded
	// crash/restart process (radio muted, backplane partitioned, protocol
	// state cold on restart) of decreasing MTBF at a fixed 4 s restart
	// time, and availability and recovery time track the injected outage
	// rate instead of collapsing.
	{
		id:    "scale-faults",
		title: "Resilience under basestation crash/restart on a generated city grid",
		header: []string{"arm", "outages", "down (s)", "avail", "gaps (fault/all)",
			"recovery (s)", "mean MoS", "disrupt/call·min"},
		preset: "grid-city",
		app:    workload.VoIPKind,
		arms: []sweepArm{
			crashArm("none", ""),
			crashArm("mtbf=4m", "bs:mtbf=4m0s:mttr=4s"),
			crashArm("mtbf=2m", "bs:mtbf=2m0s:mttr=4s"),
			crashArm("mtbf=1m", "bs:mtbf=1m0s:mttr=4s"),
		},
		row: faultsRow,
		notes: []string{
			"graceful degradation: availability and recovery stay bounded as crash frequency grows; the un-faulted arm pins the baseline the faulted arms degrade from",
			"each basestation runs its own seeded Poisson crash process (mttr=4s); restarts come back with cold protocol state and must re-learn peers and anchors",
		},
	},

	// §10 — execution identity: one deployment executed serially and
	// sharded, plain and under the chaos fault mix. Unlike every other
	// sweep, the interesting result is that the metric columns do NOT
	// change down the rows — byte-identical cells across shard counts are
	// the report-level proof that sharding is an execution strategy, not a
	// model change. Each arm pins its own count, so Options.Shards is
	// ignored. Wall-clock gains are measured by the benchmark/ module's
	// traced pass: shard.speedup (grid-metro on two halo lanes) and
	// shard.coupled_speedup (metro-districts on two district kernels).
	{
		// The districted metro as 2 and 4 independent district kernels.
		id:     "scale-shard",
		title:  "Sharded vs serial execution identity on a districted metro grid",
		header: identityHeader,
		preset: "metro-districts",
		app:    workload.CBRKind,
		arms: []sweepArm{
			identityArm("shards=1", "", 1),
			identityArm("shards=2", "", 2),
			identityArm("shards=4", "", 4),
			identityArm("chaos shards=1", chaosFaults, 1),
			identityArm("chaos shards=4", chaosFaults, 4),
		},
		row:   identityRow,
		notes: []string{"identity contract: every metric cell must be byte-identical across shard counts within a fault variant — the partition changes wall-clock execution, never the simulation"},
	},
	{
		// The un-districted metro grid — stripes sharing radio edges, the
		// case the district partition has to refuse — with the delivery
		// fan-out halo-sharded across 2, 4 and 8 stripe lanes.
		id:     "scale-shard-halo",
		title:  "Halo-band sharded vs serial execution identity on an un-districted metro grid",
		header: identityHeader,
		preset: "grid-metro",
		app:    workload.CBRKind,
		arms: []sweepArm{
			identityArm("lanes=1", "", 1),
			identityArm("lanes=2", "", 2),
			identityArm("lanes=4", "", 4),
			identityArm("lanes=8", "", 8),
			identityArm("chaos lanes=1", chaosFaults, 1),
			identityArm("chaos lanes=4", chaosFaults, 4),
		},
		row:   identityRow,
		notes: []string{"identity contract: every metric cell must be byte-identical across lane counts within a fault variant — the stripe partition moves delivery computations across worker lanes, never a coin flip or an event"},
	},
}
