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

// This file is the table of reports that are one run per row: six of the
// paper's (Fig 9, Table 2 and four DESIGN.md §4 ablations) on its
// testbeds, and nine scale-* reports over synthetic deployments from
// internal/scenario (DESIGN.md §7–§10). Each is a row of sweeps — a
// preset, the application it pins, its run length, its arms and a row
// renderer — run by the one scaffold (sweep).run. Adding a report that
// fits this shape is adding a row here and a golden (TestReports holds
// the two together); one whose row reads several runs, whose run yields
// several rows, or whose job is not a fleet run stays a function
// (registry.go).

// sweep is one report as data.
type sweep struct {
	id, title string
	header    []string
	// preset is the default base deployment; Options.Scenario overrides
	// it, unless it is a testbed. app is the measured application, pinned
	// on whichever base runs.
	preset string
	app    workload.Kind
	// seconds is the run length at Scale 1; collect attaches an event
	// Collector to every arm's run (FleetAppRun.Collector).
	seconds int
	collect bool
	arms    []sweepArm
	// row renders one arm's run under header.
	row func(label string, run *FleetAppRun) []string
	// notes follow the "scenario base" note, which a testbed row lacks.
	notes []string
}

// sweepArm is one row of a sweep: set turns the base spec into the arm's
// and cfg returns its protocol; either may be nil, for the base spec and
// core.DefaultConfig. shards pins the arm's shard count; 0 takes
// Options.Shards, and only the two identity sweeps — whose axis it is —
// pin their own.
type sweepArm struct {
	label  string
	set    func(*scenario.Spec)
	cfg    func() core.Config
	shards int
}

// axis builds one arm per value of an integer axis, labelled by format.
func axis(format string, values []int, set func(*scenario.Spec, int)) []sweepArm {
	arms := make([]sweepArm, len(values))
	for i, v := range values {
		arms[i] = sweepArm{
			label: fmt.Sprintf(format, v),
			set:   func(s *scenario.Spec) { set(s, v) },
		}
	}
	return arms
}

// tune builds one arm per value of a protocol setting, labelled by
// format: set applies the value to core.DefaultConfig.
func tune[T any](format string, values []T, set func(*core.Config, T)) []sweepArm {
	arms := make([]sweepArm, len(values))
	for i, v := range values {
		arms[i] = sweepArm{
			label: fmt.Sprintf(format, v),
			cfg: func() core.Config {
				c := core.DefaultConfig()
				set(&c, v)
				return c
			},
		}
	}
	return arms
}

func setVehicles(s *scenario.Spec, n int) { s.Vehicles = n }
func setBS(s *scenario.Spec, n int)       { s.BS = n }

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
// the measured app, validate every arm's spec and protocol — a -scenario
// override can make a single arm invalid (a one-vehicle fleet on a
// four-district city), and that is the caller's error to read, not an
// engine goroutine's panic — then schedule one memoized fleet job per arm
// and render rows, then notes, in declaration order. Nothing is scheduled
// unless every arm is valid.
func (s sweep) run(o Options) (*Report, error) {
	testbed := s.testbed()
	if testbed {
		o.Scenario, o.Shards = "", 1
	}
	src := cmp.Or(o.Scenario, s.preset)
	base, err := scenario.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s base %q: %w", s.id, src, err)
	}
	base = forceApp(base, s.app)
	specs := make([]scenario.Spec, len(s.arms))
	cfgs := make([]core.Config, len(s.arms))
	for i, arm := range s.arms {
		specs[i], cfgs[i] = base, core.DefaultConfig()
		if arm.set != nil {
			arm.set(&specs[i])
		}
		if arm.cfg != nil {
			cfgs[i] = arm.cfg()
		}
		if err := cmp.Or(specs[i].Validate(), cfgs[i].Validate()); err != nil {
			return nil, fmt.Errorf("experiment: %s arm %q on base %q: %w", s.id, arm.label, src, err)
		}
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(s.seconds)) * time.Second
	futs := make([]Future[*FleetAppRun], len(s.arms))
	for i, arm := range s.arms {
		futs[i] = eng.fleetApp(o.Seed, specs[i], cfgs[i], dur, cmp.Or(arm.shards, o.Shards), s.collect)
	}
	r := &Report{ID: s.id, Title: s.title, Header: s.header}
	for i, arm := range s.arms {
		r.AddRow(s.row(arm.label, futs[i].Wait())...)
	}
	if !testbed {
		r.AddNote("scenario base: %s", base.Key())
	}
	r.Notes = append(r.Notes, s.notes...)
	return r, nil
}

// testbed reports whether the row's preset is one of the paper's
// testbeds. Such a row is a paper figure: it ignores Options.Scenario and
// Options.Shards, runs every arm serially — the jobs Fig 12 and Table 1
// share — and adds no "scenario base" note.
func (s sweep) testbed() bool {
	base, err := scenario.Parse(s.preset)
	return err == nil && base.Topology.Testbed()
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

// backplaneArm runs its testbed over an inter-BS plane of the given
// bandwidth and latency.
func backplaneArm(label string, rate float64, delay time.Duration) sweepArm {
	return sweepArm{label: label, set: func(s *scenario.Spec) { s.BackplaneRateBps, s.BackplaneDelay = rate, delay }}
}

// transferRow renders a TCP run's median transfer time and transfers per
// session.
func transferRow(label string, run *FleetAppRun) []string {
	m := run.PerVehicle[0]
	return []string{label, f2(m.TransferQuantile(0.5)), f1(m.TransfersPerSession())}
}

var sweeps = []sweep{
	// §5 and the DESIGN.md §4 ablations: one testbed run per arm.
	{
		// Fig 9: BRR, ViFi without salvaging ("Only Diversity") and full
		// ViFi, with the EVDO cellular reference.
		id: "fig9", title: "TCP performance in VanLAN (10 KB transfers)",
		header: []string{"protocol", "median transfer (s)", "p90 transfer (s)", "transfers/session", "completed", "aborted", "salvaged pkts"},
		preset: "vanlan", app: workload.TCPKind, seconds: 1200, collect: true,
		arms: []sweepArm{{label: "BRR", cfg: core.BRRConfig}, {label: "Only Diversity", cfg: core.DiversityOnlyConfig}, {label: "ViFi"}},
		row: func(label string, run *FleetAppRun) []string {
			m := run.PerVehicle[0]
			return []string{label, f2(m.TransferQuantile(0.5)), f2(m.TransferQuantile(0.9)), f1(m.TransfersPerSession()),
				fmt.Sprint(m.Completed), fmt.Sprint(m.Aborted), fmt.Sprint(run.Collector.Salvaged)}
		},
		notes: []string{
			"paper shape: ViFi halves BRR's median transfer time and doubles transfers/session; salvaging adds ~10% on top of diversity",
			"paper reference: EVDO Rev. A measured 0.75 s median downlink for the same workload",
		},
	},
	{
		// Table 2: the relay coordinators (§5.5.1), downstream probes.
		id: "table2", title: "Downstream coordination mechanisms on DieselNet Ch.1",
		header: []string{"mechanism", "false positives", "false negatives*"},
		preset: "dieselnet1", app: workload.CBRKind, seconds: 1500, collect: true,
		arms: tune("%v", []core.CoordinatorKind{core.CoordViFi, core.CoordNotG1, core.CoordNotG2, core.CoordNotG3},
			func(c *core.Config, k core.CoordinatorKind) { c.Coordinator = k }),
		row: func(label string, run *FleetAppRun) []string {
			down := run.Collector.Stats(core.Down)
			return []string{label, pct(down.FalsePositiveRate), pct(down.FalseNegativeGivenHeard)}
		},
		notes: []string{
			"*false negatives conditioned on ≥1 auxiliary overhearing the failure — coordination failures, not coverage gaps (our synthetic traces spend more time out of coverage than the originals)",
			"paper shape: similar false negatives everywhere; ViFi far fewer false positives than ¬G3; ¬G1's false positives grow with auxiliary count (see ablate-aux)",
		},
	},
	{
		// §3.4.1: ViFi VoIP on VanLAN's first k basestations.
		id: "ablate-diversity", title: "ViFi gain vs number of available BSes (§3.4.1)",
		header: []string{"#BSes", "median VoIP session (s)", "mean MoS"},
		preset: "vanlan", app: workload.VoIPKind, seconds: 900,
		arms: axis("%d", []int{1, 2, 3, 5, 8, 11}, setBS),
		row: func(label string, run *FleetAppRun) []string {
			q := run.PerVehicle[0].VoIP
			return []string{label, f1(q.MedianSessionSec), f2(q.MeanMoS)}
		},
		notes: []string{"paper shape: most of the gain arrives by 2–3 BSes (§3.4.1)"},
	},
	{
		// §4.1: is a thin backplane enough?
		id: "ablate-backplane", title: "ViFi TCP vs backplane capacity (§4.1)",
		header: []string{"backplane", "median transfer (s)", "transfers/session"},
		preset: "vanlan", app: workload.TCPKind, seconds: 900,
		arms: []sweepArm{
			backplaneArm("512 kbit/s, 40 ms", 512e3, 40*time.Millisecond),
			backplaneArm("2 Mbit/s, 20 ms", 2e6, 20*time.Millisecond),
			backplaneArm("5 Mbit/s, 8 ms (default)", 5e6, 8*time.Millisecond),
			backplaneArm("100 Mbit/s, 1 ms (LAN)", 100e6, time.Millisecond),
		},
		row:   transferRow,
		notes: []string{"design claim: ViFi needs little backplane capacity — thin links should perform close to a LAN"},
	},
	{
		// §4.5: the salvage window. The 0 s arm switches salvaging off,
		// which is Fig 9's Only Diversity run.
		id: "ablate-salvage", title: "Salvage window sweep on VanLAN TCP (§4.5)",
		header: []string{"window", "median transfer (s)", "transfers/session", "salvaged"},
		preset: "vanlan", app: workload.TCPKind, seconds: 1200, collect: true,
		arms: append([]sweepArm{{label: "0s", cfg: core.DiversityOnlyConfig}}, tune("%gs", []float64{0.5, 1, 2, 4},
			func(c *core.Config, sec float64) { c.SalvageWindow = time.Duration(sec * float64(time.Second)) })...),
		row: func(label string, run *FleetAppRun) []string {
			return append(transferRow(label, run), fmt.Sprint(run.Collector.Salvaged))
		},
		notes: []string{"paper: the 1 s window (minimum TCP RTO) captures the disproportionate benefit; little beyond it"},
	},
	{
		// §4.7: the retransmission timer's percentile. Spurious
		// retransmissions are attempts whose earlier attempt had already
		// reached the destination.
		id: "ablate-retx", title: "Retransmission-timer percentile sweep (§4.7)",
		header: []string{"percentile", "median transfer (s)", "spurious retx/pkt"},
		preset: "vanlan", app: workload.TCPKind, seconds: 900, collect: true,
		arms: tune("%g", []float64{0.5, 0.9, 0.99, 0.999}, func(c *core.Config, p float64) { c.RetxPercentile = p }),
		row: func(label string, run *FleetAppRun) []string {
			return []string{label, f2(run.PerVehicle[0].TransferQuantile(0.5)), f2(spuriousRetxRate(run.Collector))}
		},
		notes: []string{"paper: the 99th percentile errs toward waiting, trading delay for fewer spurious retransmissions"},
	},

	// §7 — link delivery under a fleet-wide constant-rate workload: one
	// 500-byte packet each way per 200 ms slot, and 5 pkt/s per direction
	// per vehicle drives a 24-vehicle fleet to the channel's saturation
	// knee. These sweeps measure link delivery, so the app is pinned to CBR.
	{
		// Aggregate throughput, delivery ratio and session quality as more
		// vehicles share one channel; grid-city is 54 basestations.
		id: "scale-fleet", title: "Fleet-size scaling on a generated city grid",
		header: linkHeader,
		preset: "grid-city", app: workload.CBRKind, seconds: 240,
		arms:  axis("fleet=%d", []int{1, 4, 8, 16, 24}, setVehicles),
		row:   linkRow,
		notes: []string{"expected shape: aggregate delivered/s grows then saturates at the channel knee; per-vehicle delivery and session length degrade as the fleet contends"},
	},
	{
		// Coverage and session quality versus infrastructure investment.
		// The default base runs 8 vehicles; a -scenario override keeps
		// whatever fleet size it asks for (only the BS count is swept).
		id: "scale-density", title: "Basestation-density scaling on a generated city grid",
		header: linkHeader,
		preset: "grid-city,vehicles=8", app: workload.CBRKind, seconds: 240,
		arms:  axis("bs=%d", []int{14, 28, 54, 96}, setBS),
		row:   linkRow,
		notes: []string{"expected shape: delivery ratio and session length improve with density until routes are fully covered, then flatten"},
	},
	{
		// The channel-layer stress test behind the spatial index (DESIGN.md
		// §6). Unlike scale-fleet, the offered application traffic is
		// pinned — the same 16-vehicle CBR fleet in every arm — and only
		// the radio population (and the region, at constant basestation
		// density) grows, so any super-linear wall-time growth is
		// attributable to per-transmission channel cost, not to added
		// workload.
		id: "scale-radio", title: "Radio-count scaling at fixed traffic on a generated metro grid",
		header: linkHeader,
		preset: "grid-metro", app: workload.CBRKind, seconds: 240,
		arms: axis("radios=%d", scaleRadioArms, setScaleRadioArm),
		row:  linkRow,
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
		id: "scale-protocol", title: "Protocol-state occupancy vs radio population on a generated metro grid",
		header: []string{"arm", "BSes", "vehicles", "tx",
			"fresh peers/BS", "report entries/BS", "grid nbrs/BS", "aux/veh"},
		preset: "grid-metro", app: workload.CBRKind, seconds: 240,
		arms:  axis("radios=%d", scaleProtocolArms, setScaleRadioArm),
		row:   occupancyRow,
		notes: []string{"occupancy sampled once at run end; fresh peers and report entries must track the grid neighborhood (constant BS density), not the radio population — flat columns across a 20× population growth are the O(neighbors) beaconing contract"},
	},

	// §8 — what the paper's §5.3 actually evaluates, application metrics,
	// but under fleet contention: every vehicle runs its own session.
	{
		// §5.3.1: every vehicle runs its own 10 KB transfer loop.
		id: "scale-app-tcp", title: "TCP transfer scaling on a generated city grid",
		header: []string{"arm", "BSes", "vehicles", "completed", "aborted", "median xfer (s)", "p90 xfer (s)", "xfers/veh·min"},
		preset: "grid-city", app: workload.TCPKind, seconds: 240,
		arms:  axis("fleet=%d", appFleets, setVehicles),
		row:   tcpRow,
		notes: []string{"expected shape: median transfer time grows and per-vehicle completions fall as the fleet contends (§5.3.1 measured under contention)"},
	},
	{
		// §5.3.2: every vehicle holds a bidirectional G.729 call scored
		// with the E-model and the MoS<2 disruption classifier.
		id: "scale-app-voip", title: "VoIP call scaling on a generated city grid",
		header: []string{"arm", "BSes", "vehicles", "mean MoS", "median session (s)", "disruptions", "disrupt/call·min"},
		preset: "grid-city", app: workload.VoIPKind, seconds: 240,
		arms:  axis("fleet=%d", appFleets, setVehicles),
		row:   voipRow,
		notes: []string{"expected shape: disruptions per call-minute climb with fleet size as windows blow the 52 ms wireless budget (§5.3.2 under contention)"},
	},

	// §9 — resilience. Where the other sweeps show cost staying flat, this
	// one shows service degrading gracefully: every arm injects a seeded
	// crash/restart process (radio muted, backplane partitioned, protocol
	// state cold on restart) of decreasing MTBF at a fixed 4 s restart
	// time, and availability and recovery time track the injected outage
	// rate instead of collapsing.
	{
		id: "scale-faults", title: "Resilience under basestation crash/restart on a generated city grid",
		header: []string{"arm", "outages", "down (s)", "avail", "gaps (fault/all)",
			"recovery (s)", "mean MoS", "disrupt/call·min"},
		preset: "grid-city", app: workload.VoIPKind, seconds: 240,
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
		id: "scale-shard", title: "Sharded vs serial execution identity on a districted metro grid",
		header: identityHeader,
		preset: "metro-districts", app: workload.CBRKind, seconds: 240,
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
		id: "scale-shard-halo", title: "Halo-band sharded vs serial execution identity on an un-districted metro grid",
		header: identityHeader,
		preset: "grid-metro", app: workload.CBRKind, seconds: 240,
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
