package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/sim"
)

// TestParseFaultsKnob pins the faults= override: preset names and raw
// clauses are stored canonicalized (the canonical string doubles as the
// run-cache fragment and the fault-stream label), and bad specs are
// rejected at Parse time with the parser's key list intact.
func TestParseFaultsKnob(t *testing.T) {
	s, err := Parse("grid-small,faults=bs-flaky")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fault.Canonical(fault.Preset("bs-flaky"))
	if s.Faults != want {
		t.Errorf("preset not canonicalized: %q, want %q", s.Faults, want)
	}
	if _, err := s.FaultSpec(); err != nil {
		t.Errorf("stored canonical spec does not re-parse: %v", err)
	}

	if _, err := Parse("grid-small,faults=warp:mtbf=1s"); err == nil ||
		!strings.Contains(err.Error(), "bs, bp, blackout") {
		t.Errorf("unknown layer error missing the valid-layer list: %v", err)
	}
	if _, err := Parse("grid-small,faults=bs:wat=1s"); err == nil ||
		!strings.Contains(err.Error(), "mtbf") {
		t.Errorf("unknown key error missing the valid-key list: %v", err)
	}
}

// TestKeyFaultsFragment pins the golden-safety contract at the key
// layer: a fault-free spec's Key is byte-identical to the historical
// format (no faults fragment at all), and a faulted spec appends
// exactly one discriminating fragment while leaving the geometry key —
// and so the generated city — untouched.
func TestKeyFaultsFragment(t *testing.T) {
	base, _ := Parse("grid-city")
	if strings.Contains(base.Key(), "faults") {
		t.Fatalf("fault-free key mentions faults: %q", base.Key())
	}
	faulted, err := Parse("grid-city,faults=bs:mtbf=2m:mttr=10s")
	if err != nil {
		t.Fatal(err)
	}
	if want := base.Key() + " faults=" + faulted.Faults; faulted.Key() != want {
		t.Errorf("faulted key = %q, want %q", faulted.Key(), want)
	}
	if base.GeomKey() != faulted.GeomKey() {
		t.Error("GeomKey depends on the faults knob; faulted runs would regenerate the city")
	}
}

// TestInstallFaultsDrivesOutages is the wiring smoke test: a scripted
// timeline against a built cell takes the targeted basestation down
// (radio and backplane) inside the window and restores both afterwards.
func TestInstallFaultsDrivesOutages(t *testing.T) {
	k := sim.NewKernel(7)
	spec, _ := Parse("grid-small,vehicles=2")
	cell, _, err := BuildCell(k, spec, core.DefaultCellOptions(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fault.Parse("bs:at=1s-2s:node=0")
	if err != nil {
		t.Fatal(err)
	}
	tl := fault.Plan(k, "smoke", fs, 3*time.Second, len(cell.BSes), len(cell.Vehicles))
	if len(tl.Outages) != 1 {
		t.Fatalf("planned %d outages, want 1", len(tl.Outages))
	}
	var restoredAt time.Duration
	InstallFaults(k, cell, &tl, func(at time.Duration) { restoredAt = at })

	id := cell.BSes[0].MAC().ID()
	addr := cell.BSes[0].Addr()
	k.At(1500*time.Millisecond, func() {
		if !cell.Channel.Down(id) {
			t.Error("radio not muted inside the outage window")
		}
		if !cell.Backplane.IsDown(addr) {
			t.Error("backplane not partitioned inside the outage window")
		}
	})
	k.RunUntil(3 * time.Second)
	if cell.Channel.Down(id) || cell.Backplane.IsDown(addr) {
		t.Error("basestation not restored after the outage window")
	}
	if restoredAt != 2*time.Second {
		t.Errorf("onRestore fired at %v, want 2s", restoredAt)
	}
}
