package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

func tinyTrace() *Trace {
	t := &Trace{
		BSes: []string{"a", "b", "c"},
		Ratio: [][]float64{
			{1.0, 0.0, 0.0},
			{0.5, 0.5, 0.0},
			{0.0, 0.9, 0.0},
			{0.0, 0.0, 0.0},
		},
	}
	t.computeCoVisibility()
	return t
}

func TestValidate(t *testing.T) {
	tr := tinyTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := tinyTrace()
	bad.Ratio[1] = []float64{0.5}
	if bad.Validate() == nil {
		t.Error("ragged trace accepted")
	}
	bad2 := tinyTrace()
	bad2.Ratio[0][0] = 1.5
	if bad2.Validate() == nil {
		t.Error("out-of-range ratio accepted")
	}
}

func TestVisibleCounts(t *testing.T) {
	tr := tinyTrace()
	any := tr.VisibleCounts(0)
	want := []int{1, 2, 1, 0}
	for i := range want {
		if any[i] != want[i] {
			t.Errorf("any-beacon count[%d] = %d, want %d", i, any[i], want[i])
		}
	}
	half := tr.VisibleCounts(0.5)
	want = []int{1, 2, 1, 0}
	for i := range want {
		if half[i] != want[i] {
			t.Errorf("50%% count[%d] = %d, want %d", i, half[i], want[i])
		}
	}
	strict := tr.VisibleCounts(0.95)
	want = []int{1, 0, 0, 0}
	for i := range want {
		if strict[i] != want[i] {
			t.Errorf("95%% count[%d] = %d, want %d", i, strict[i], want[i])
		}
	}
}

func TestCoVisibility(t *testing.T) {
	tr := tinyTrace()
	// a and b overlap in second 1; c never appears.
	if !tr.CoVisible[0][1] || !tr.CoVisible[1][0] {
		t.Error("a/b co-visibility missed")
	}
	if tr.CoVisible[0][2] || tr.CoVisible[1][2] {
		t.Error("phantom co-visibility with c")
	}
	if !tr.CoVisible[2][2] {
		t.Error("diagonal should be true")
	}
}

func TestScheduleLinks(t *testing.T) {
	tr := tinyTrace()
	links := tr.ScheduleLinks()
	if len(links) != 3 {
		t.Fatalf("links = %d", len(links))
	}
	if got := links[0].ReceiveProb(500*time.Millisecond, 0); got != 1.0 {
		t.Errorf("bs a second 0 = %v", got)
	}
	if got := links[1].ReceiveProb(2500*time.Millisecond, 0); got != 0.9 {
		t.Errorf("bs b second 2 = %v", got)
	}
	if got := links[2].ReceiveProb(10*time.Second, 0); got != 0 {
		t.Errorf("beyond trace = %v", got)
	}
	if got := links[0].ReceiveProb(-time.Second, 0); got != 0 {
		t.Errorf("before trace = %v", got)
	}
	// The links read the trace itself: they copy nothing.
	tr.Ratio[1][2] = 0.25
	if got := links[2].ReceiveProb(1500*time.Millisecond, 0); got != 0.25 {
		t.Errorf("bs c second 1 after a write = %v, want the trace's 0.25", got)
	}
}

func TestInterBSRatios(t *testing.T) {
	tr := tinyTrace()
	rng := sim.NewKernel(1).RNG("x")
	m := tr.InterBSRatios(rng)
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Error("diagonal must be 1")
	}
	if m[0][1] <= 0 || m[0][1] > 1 {
		t.Errorf("co-visible pair ratio = %v, want (0,1]", m[0][1])
	}
	if m[0][1] != m[1][0] {
		t.Error("matrix not symmetric")
	}
	if m[0][2] != 0 || m[1][2] != 0 {
		t.Error("never-co-visible pairs must be unreachable")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.BSes) != 3 || got.BSes[1] != "b" {
		t.Errorf("BSes = %v", got.BSes)
	}
	if got.Seconds() != 4 {
		t.Errorf("seconds = %d", got.Seconds())
	}
	for s := range tr.Ratio {
		for b := range tr.Ratio[s] {
			if math.Abs(got.Ratio[s][b]-tr.Ratio[s][b]) > 0.001 {
				t.Errorf("ratio[%d][%d] = %v, want %v", s, b, got.Ratio[s][b], tr.Ratio[s][b])
			}
		}
	}
	if got.CoVisible == nil {
		t.Error("read did not compute co-visibility")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus,a\n0,0.5\n",
		"second,a\n0,notanumber\n",
		"second,a\n0,0.5,0.7\n",
		"second,a\n0,2.5\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateDieselNetShape(t *testing.T) {
	tr := GenerateDieselNet(1, 1, 10*time.Minute)
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if tr.NumBSes() != 10 {
		t.Errorf("channel 1 BSes = %d, want 10", tr.NumBSes())
	}
	if tr.Seconds() != 600 {
		t.Errorf("seconds = %d, want 600", tr.Seconds())
	}
	tr6 := GenerateDieselNet(1, 6, 2*time.Minute)
	if tr6.NumBSes() != 14 {
		t.Errorf("channel 6 BSes = %d, want 14", tr6.NumBSes())
	}

	// The bus should hear at least one BS a meaningful fraction of the
	// time, and multiple BSes regularly (the Fig 5 finding).
	counts := tr.VisibleCounts(0)
	secsWithAny, secsWithTwo := 0, 0
	for _, c := range counts {
		if c >= 1 {
			secsWithAny++
		}
		if c >= 2 {
			secsWithTwo++
		}
	}
	if secsWithAny < tr.Seconds()/4 {
		t.Errorf("only %d/%d seconds hear any BS", secsWithAny, tr.Seconds())
	}
	if secsWithTwo < tr.Seconds()/10 {
		t.Errorf("only %d/%d seconds hear ≥2 BSes", secsWithTwo, tr.Seconds())
	}
}

func TestGenerateDieselNetDeterminism(t *testing.T) {
	a := GenerateDieselNet(7, 1, time.Minute)
	b := GenerateDieselNet(7, 1, time.Minute)
	for s := range a.Ratio {
		for i := range a.Ratio[s] {
			if a.Ratio[s][i] != b.Ratio[s][i] {
				t.Fatal("same seed produced different traces")
			}
		}
	}
	c := GenerateDieselNet(8, 1, time.Minute)
	diff := false
	for s := range a.Ratio {
		for i := range a.Ratio[s] {
			if a.Ratio[s][i] != c.Ratio[s][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateVanLANProbes(t *testing.T) {
	pt := GenerateVanLANProbes(3, 2)
	if err := pt.Validate(); err != nil {
		t.Fatalf("invalid probe trace: %v", err)
	}
	if len(pt.BSes) != 11 {
		t.Errorf("BSes = %d, want 11", len(pt.BSes))
	}
	if pt.Slots == 0 {
		t.Fatal("no slots")
	}
	// Downstream receptions must exist and RSSI must be set exactly when
	// the probe was received.
	recv := 0
	for s := 0; s < pt.Slots; s++ {
		for b := range pt.BSes {
			if pt.Down[s][b] {
				recv++
				if math.IsNaN(pt.RSSI[s][b]) {
					t.Fatalf("received probe without RSSI at slot %d bs %d", s, b)
				}
			} else if !math.IsNaN(pt.RSSI[s][b]) {
				t.Fatalf("lost probe with RSSI at slot %d bs %d", s, b)
			}
		}
	}
	if recv == 0 {
		t.Fatal("no probes received at all")
	}
}

// TestVanLANSubset holds ProbeTrace.Subset to its doc: basestation i of
// the subset is basestation idx[i] of the full trace, slot for slot and
// pair for pair, over the full trace's positions.
func TestVanLANSubset(t *testing.T) {
	full := GenerateVanLANProbes(4, 1)
	idx := []int{0, 5, 10}
	pt := full.Subset(idx)
	if err := pt.Validate(); err != nil {
		t.Fatalf("invalid subset: %v", err)
	}
	if !slices.Equal(pt.BSes, []string{"bs0", "bs5", "bs10"}) {
		t.Errorf("subset names = %v", pt.BSes)
	}
	if pt.Slots != full.Slots || pt.SlotDur != full.SlotDur || pt.SlotsPerTrip != full.SlotsPerTrip {
		t.Errorf("subset slots %d/%v/%d, full %d/%v/%d",
			pt.Slots, pt.SlotDur, pt.SlotsPerTrip, full.Slots, full.SlotDur, full.SlotsPerTrip)
	}
	if len(pt.Pos) == 0 || &pt.Pos[0] != &full.Pos[0] || len(pt.Pos) != len(full.Pos) {
		t.Error("subset does not share the full trace's positions")
	}
	sameRSSI := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for s := 0; s < pt.Slots; s++ {
		for i, b := range idx {
			if pt.Down[s][i] != full.Down[s][b] || pt.Up[s][i] != full.Up[s][b] ||
				!sameRSSI(pt.RSSI[s][i], full.RSSI[s][b]) {
				t.Fatalf("slot %d: subset column %d differs from full column %d", s, i, b)
			}
		}
	}
}

func TestProbeVisibleCounts(t *testing.T) {
	pt := GenerateVanLANProbes(5, 1)
	counts := pt.VisibleCounts(0)
	if len(counts) != pt.Slots/10 {
		t.Fatalf("counts len = %d, want %d", len(counts), pt.Slots/10)
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 2 {
		t.Errorf("max visible BSes = %d, want ≥2 (diversity exists)", max)
	}
}
