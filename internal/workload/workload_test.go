package workload

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/voip"
)

// testCell builds a compact two-BS fleet cell with nv vehicles parked in
// coverage, warmed far enough for anchors to settle.
func testCell(t *testing.T, seed int64, nv int) (*sim.Kernel, *core.Cell) {
	t.Helper()
	k := sim.NewKernel(seed)
	bs := []mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 80}}
	vehs := make([]mobility.Mover, nv)
	for i := range vehs {
		vehs[i] = mobility.Fixed{X: 20 + float64(i)*15}
	}
	cell := core.NewFleetCell(k, core.DefaultCellOptions(), bs, vehs, core.Placement{})
	return k, cell
}

// runDrivers binds and starts one driver per vehicle, runs to the
// deadline, and returns the stopped metrics.
func runDrivers(k *sim.Kernel, cell *core.Cell, drivers []Driver, until time.Duration) []Metrics {
	for i, d := range drivers {
		Bind(cell, i, d)
		d.Start()
	}
	k.RunUntil(until)
	out := make([]Metrics, len(drivers))
	for i, d := range drivers {
		out[i] = d.Stop()
	}
	return out
}

func TestCBRDriverRecordsDeliveries(t *testing.T) {
	k, cell := testCell(t, 3, 2)
	end := 30 * time.Second
	drivers := make([]Driver, 2)
	for i := range drivers {
		drivers[i] = NewCBR(k, CellPort(cell, i), i, 3*time.Second, end, 200*time.Millisecond, 500)
	}
	ms := runDrivers(k, cell, drivers, end+time.Second)
	for i, m := range ms {
		if m.App != CBRKind || m.Vehicle != i {
			t.Fatalf("vehicle %d: metrics tagged %v/%d", i, m.App, m.Vehicle)
		}
		if len(m.Up) == 0 || len(m.Up) != len(m.Down) {
			t.Fatalf("vehicle %d: slot tables %d/%d", i, len(m.Up), len(m.Down))
		}
		up := 0
		for _, ok := range m.Up {
			if ok {
				up++
			}
		}
		if up == 0 {
			t.Errorf("vehicle %d: no upstream slot delivered", i)
		}
	}
}

func TestTCPDriverCompletesTransfers(t *testing.T) {
	k, cell := testCell(t, 7, 1)
	d := NewTCP(k, DefaultConfig().TransferBytes, CellPort(cell, 0), 0, 2*time.Second, 60*time.Second)
	ms := runDrivers(k, cell, []Driver{d}, 60*time.Second)
	m := ms[0]
	if m.App != TCPKind {
		t.Fatalf("app = %v", m.App)
	}
	if m.Completed == 0 {
		t.Error("no transfers completed on a static in-coverage link")
	}
	if len(m.TransferSecs) != m.Completed {
		t.Errorf("recorded %d transfer times for %d completions", len(m.TransferSecs), m.Completed)
	}
}

func TestVoIPDriverScoresCall(t *testing.T) {
	k, cell := testCell(t, 11, 1)
	d := NewVoIP(k, CellPort(cell, 0), 0, 2*time.Second, 62*time.Second)
	ms := runDrivers(k, cell, []Driver{d}, 63*time.Second)
	q := ms[0].VoIP
	if q.Windows != 20 {
		t.Fatalf("scored %d windows, want 20 (60 s of 3 s windows)", q.Windows)
	}
	if q.MeanMoS < 2.0 {
		t.Errorf("static in-coverage call scored MoS %.2f, expected a usable call", q.MeanMoS)
	}
}

func TestWebDriverLoadsPages(t *testing.T) {
	k, cell := testCell(t, 13, 1)
	d := NewWeb(k, DefaultConfig().Think, CellPort(cell, 0), 0, 2*time.Second, 120*time.Second,
		k.RNG("workload-test", "web"))
	ms := runDrivers(k, cell, []Driver{d}, 120*time.Second)
	m := ms[0]
	if m.App != WebKind {
		t.Fatalf("app = %v", m.App)
	}
	if m.Completed == 0 {
		t.Error("no pages completed on a static in-coverage link")
	}
	if len(m.TransferSecs) != m.Completed {
		t.Errorf("recorded %d page times for %d completions", len(m.TransferSecs), m.Completed)
	}
}

// TestDriversDeterministic pins the driver layer's reproducibility: two
// identical runs of a mixed set of drivers agree on every metric.
func TestDriversDeterministic(t *testing.T) {
	run := func() []Metrics {
		k, cell := testCell(t, 21, 3)
		end := 45 * time.Second
		drivers := []Driver{
			NewTCP(k, DefaultConfig().TransferBytes, CellPort(cell, 0), 0, 2*time.Second, end),
			NewVoIP(k, CellPort(cell, 1), 1, 2*time.Second, end),
			NewWeb(k, DefaultConfig().Think, CellPort(cell, 2), 2, 2*time.Second, end,
				k.RNG("workload-test", "det")),
		}
		return runDrivers(k, cell, drivers, end+time.Second)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Completed != b[i].Completed || a[i].Aborted != b[i].Aborted ||
			a[i].VoIP.MeanMoS != b[i].VoIP.MeanMoS || a[i].VoIP.Interruptions != b[i].VoIP.Interruptions {
			t.Errorf("driver %d diverged between equal-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSplitKindsApportionment(t *testing.T) {
	rng := sim.NewKernel(5).RNG("split")
	kinds := SplitKinds(rng, [4]int{1, 1, 1, 1}, 8)
	if len(kinds) != 8 {
		t.Fatalf("assigned %d kinds, want 8", len(kinds))
	}
	counts := map[Kind]int{}
	for _, k := range kinds {
		counts[k]++
	}
	for _, k := range []Kind{CBRKind, TCPKind, VoIPKind, WebKind} {
		if counts[k] != 2 {
			t.Errorf("kind %v got %d of 8 vehicles, want 2 (even split)", k, counts[k])
		}
	}
	// Zero weight excludes a kind entirely.
	kinds = SplitKinds(sim.NewKernel(5).RNG("split2"), [4]int{0, 1, 1, 0}, 5)
	for _, k := range kinds {
		if k != TCPKind && k != VoIPKind {
			t.Errorf("zero-weight kind %v assigned", k)
		}
	}
	// All-zero weights fall back to an even split rather than panicking.
	if got := SplitKinds(sim.NewKernel(5).RNG("split3"), [4]int{}, 4); len(got) != 4 {
		t.Errorf("all-zero weights assigned %d kinds", len(got))
	}
}

func TestSplitKindsDeterministic(t *testing.T) {
	mk := func() []Kind {
		return SplitKinds(sim.NewKernel(77).RNG("mix", "label"), [4]int{1, 2, 1, 0}, 12)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment diverged at vehicle %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"cbr": CBRKind, "tcp": TCPKind, "voip": VoIPKind, "web": WebKind, "mixed": MixedKind,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseKind("quic"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAggregatePoolsPerApp(t *testing.T) {
	ms := []Metrics{
		{App: TCPKind, Completed: 3, Aborted: 1, TransferSecs: []float64{1, 2, 9}},
		{App: TCPKind, Completed: 1, TransferSecs: []float64{4}},
		{App: VoIPKind, VoIP: quality(20, 2, 3.5, []float64{30, 12})},
		{App: VoIPKind, VoIP: quality(10, 1, 2.0, []float64{9})},
		{App: CBRKind, Up: []bool{true, false}, Down: []bool{true, true}},
	}
	s := Aggregate(ms)
	tcp := s.App(TCPKind)
	if tcp.Vehicles != 2 || tcp.Completed != 4 || tcp.Aborted != 1 {
		t.Errorf("tcp summary: %+v", tcp)
	}
	// Pooled sorted times are [1 2 4 9]; the interpolated median is 3.
	if tcp.MedianTransferSec != 3 {
		t.Errorf("pooled median = %g, want 3", tcp.MedianTransferSec)
	}
	v := s.App(VoIPKind)
	if v.Disruptions != 3 || v.CallWindows != 30 {
		t.Errorf("voip summary: %+v", v)
	}
	// 30 windows = 90 s = 1.5 min of scored call; 3 disruptions → 2/min.
	if v.DisruptionsPerMin != 2.0 {
		t.Errorf("disruptions/min = %g, want 2", v.DisruptionsPerMin)
	}
	wantMoS := (3.5*20 + 2.0*10) / 30
	if v.MeanMoS != wantMoS {
		t.Errorf("window-weighted MoS = %g, want %g", v.MeanMoS, wantMoS)
	}
}

// quality builds a voip.Quality literal for aggregation tests.
func quality(windows, interruptions int, mos float64, sessions []float64) voip.Quality {
	return voip.Quality{
		Windows:       windows,
		Interruptions: interruptions,
		MeanMoS:       mos,
		SessionLens:   sessions,
	}
}
