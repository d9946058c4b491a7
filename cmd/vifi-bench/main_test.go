package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, id := range []string{"fig1", "fig12", "table2", "ablate-aux"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list missing %s", id)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

// TestBadScale: a scale must be a positive finite number, or nothing is
// run and the exit is a usage error.
func TestBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "+Inf"} {
		var out, errb strings.Builder
		if code := run([]string{"-run", "fig7", "-scale", scale}, &out, &errb); code != 2 {
			t.Errorf("-scale %s: exit = %d, want 2", scale, code)
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s: a report was printed:\n%s", scale, out.String())
		}
	}
}

// TestBadShardsAndMetricsInterval: a run is split into at least one
// shard, and a recording needs a positive sampling interval; otherwise
// nothing is run and the exit is a usage error.
func TestBadShardsAndMetricsInterval(t *testing.T) {
	ftdc := filepath.Join(t.TempDir(), "m.ftdc")
	for _, flags := range [][]string{
		{"-shards", "0"},
		{"-shards", "-3"},
		{"-metrics", ftdc, "-metrics-interval", "0"},
		{"-metrics", ftdc, "-metrics-interval", "-1s"},
	} {
		var out, errb strings.Builder
		if code := run(append([]string{"-run", "fig7", "-scale", "0.01"}, flags...), &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", flags, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a report was printed:\n%s", flags, out.String())
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-parallel") {
		t.Error("usage text missing -parallel")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "fig99", "-scale", "0.05"}, &out, &errb); code != 1 {
		t.Errorf("unknown experiment exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "fig99") {
		t.Errorf("stderr does not name the bad id: %s", errb.String())
	}
}

// TestTinyEndToEnd runs one cheap figure serially and in parallel and
// checks stdout is identical (the cmd-level half of the tentpole's
// correctness gate; report timing goes to stderr by design).
func TestTinyEndToEnd(t *testing.T) {
	outputs := make([]string, 2)
	for i, par := range []string{"1", "3"} {
		var out, errb strings.Builder
		code := run([]string{"-run", "fig3,fig5", "-scale", "0.05", "-parallel", par}, &out, &errb)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr: %s", par, code, errb.String())
		}
		if !strings.Contains(out.String(), "== fig3:") || !strings.Contains(out.String(), "== fig5:") {
			t.Fatalf("-parallel %s: reports missing:\n%s", par, out.String())
		}
		if !strings.Contains(errb.String(), "run-cache hits") {
			t.Errorf("-parallel %s: engine summary missing from stderr", par)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Error("stdout differs between -parallel 1 and -parallel 3")
	}
}

// TestScenarioFlag runs the fleet-scaling experiment on an overridden
// base scenario and checks the override lands in the report.
func TestScenarioFlag(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-run", "scale-fleet", "-scale", "0.02",
		"-scenario", "grid-small,bs=16"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "== scale-fleet:") ||
		!strings.Contains(out.String(), "bs=16") {
		t.Errorf("scenario override missing from report:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-run", "scale-fleet", "-scenario", "nope"}, &out, &errb); code != 2 {
		t.Errorf("bad -scenario: exit %d, want 2", code)
	}
	// A valid base that makes one arm invalid (one vehicle cannot populate
	// four districts) is an error naming the arm, with nothing on stdout —
	// not a panic on an engine goroutine.
	out.Reset()
	errb.Reset()
	code = run([]string{"-run", "scale-fleet", "-scenario", "metro-districts", "-scale", "0.01"}, &out, &errb)
	if code != 1 || out.Len() != 0 {
		t.Errorf("arm-invalidating -scenario: exit %d with %d bytes of stdout, want 1 and none", code, out.Len())
	}
	for _, want := range []string{`scale-fleet arm "fleet=1"`, "vehicles = 1 < districts = 4"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr %q does not mention %q", errb.String(), want)
		}
	}
}
