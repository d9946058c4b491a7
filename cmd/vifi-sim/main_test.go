package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBadInputs(t *testing.T) {
	ftdc := filepath.Join(t.TempDir(), "m.ftdc")
	small := []string{"-scenario", "grid-small,vehicles=2", "-duration", "5s"}
	cases := [][]string{
		{"-scenario", "mars"},
		{"-protocol", "carrier-pigeon"},
		{"-scenario", "vanlan,app=quic"},
		{"-scenario", "vanlan,vehicles=2"},
		// The paper's testbeds are scenario presets: the old
		// environment/workload flags are gone.
		{"-env", "vanlan"},
		{"-workload", "voip"},
		{"-nope"},
		// A run needs simulated time: no panic, no empty report.
		{"-duration", "0s"},
		{"-scenario", "grid,faults=chaos", "-duration", "-5s"},
		{"-scenario", "vanlan,app=voip", "-duration", "0s"},
		// A run is split into at least one shard, and a recording needs
		// a positive sampling interval or it holds no sample.
		append(small, "-shards", "0"),
		append(small, "-shards", "-3"),
		append(small, "-metrics", ftdc, "-metrics-interval", "0"),
		append(small, "-metrics", ftdc, "-metrics-interval", "-1s"),
		// A spec the generator cannot lay out, or whose backplane
		// settings the run would silently drop, is refused before any
		// run starts.
		{"-scenario", "grid-city,districts=3", "-duration", "3s"},
		{"-scenario", "grid-city,bprate=-1", "-duration", "3s"},
		{"-scenario", "grid-city,bpdelay=-1s", "-duration", "3s"},
		{"-scenario", "cluster-town,clusters=-1", "-duration", "3s"},
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
}

func TestVoIPEndToEnd(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-scenario", "vanlan,app=voip", "-protocol", "vifi", "-duration", "45s"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"scenario=vanlan bs=11", "protocol=vifi", "11 basestations, 1 vehicles", "mean MoS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestMultiProtocolCompare exercises the engine-backed comparison path:
// two arms, parallel pool, both sections present in order.
func TestMultiProtocolCompare(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-scenario", "dieselnet1,app=tcp", "-protocol", "vifi,brr",
		"-duration", "40s", "-parallel", "2"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	vifiAt := strings.Index(s, "protocol=vifi")
	brrAt := strings.Index(s, "protocol=brr")
	if vifiAt < 0 || brrAt < 0 || brrAt < vifiAt {
		t.Errorf("protocol sections missing or out of order:\n%s", s)
	}
	if strings.Count(s, "tcp transfers:") != 2 {
		t.Errorf("want one TCP summary per protocol:\n%s", s)
	}
}

// TestProbesWorkload runs the default app on a testbed: the §5.2
// link-layer probe.
func TestProbesWorkload(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-scenario", "vanlan", "-duration", "30s"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"app=cbr", "median session (1s,50%)", "interruptions:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTraceDrivenShardsRunSerially: a trace-driven testbed's links have
// no radio cutoff to shard by, so -shards 4 runs it serially — no panic,
// no shard log, and -shards 1's stdout byte for byte.
func TestTraceDrivenShardsRunSerially(t *testing.T) {
	outputs := make([]string, 2)
	for i, shards := range []string{"1", "4"} {
		var out, errb strings.Builder
		args := []string{"-scenario", "dieselnet1,app=tcp", "-duration", "30s", "-seed", "7", "-shards", shards}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("-shards %s: exit %d, stderr: %s", shards, code, errb.String())
		}
		if errb.Len() != 0 {
			t.Errorf("-shards %s: stderr %q, want no shard log", shards, errb.String())
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("-shards 4 stdout differs from -shards 1:\n%s\nvs\n%s", outputs[1], outputs[0])
	}
}

// TestScenarioFleetWorkload exercises the -scenario path: a generated
// deployment under the fleet workload, two protocol arms, deterministic
// across parallelism.
func TestScenarioFleetWorkload(t *testing.T) {
	outputs := make([]string, 2)
	for i, par := range []string{"1", "3"} {
		var out, errb strings.Builder
		args := []string{"-scenario", "grid-small,vehicles=4", "-protocol", "vifi,brr",
			"-duration", "20s", "-parallel", par}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		s := out.String()
		if strings.Count(s, "aggregate delivered:") != 2 {
			t.Fatalf("want one fleet summary per protocol:\n%s", s)
		}
		if !strings.Contains(s, "12 basestations, 4 vehicles") {
			t.Errorf("deployment line missing:\n%s", s)
		}
		outputs[i] = s
	}
	if outputs[0] != outputs[1] {
		t.Error("stdout differs between -parallel 1 and -parallel 3")
	}
}

// TestScenarioListAndErrors covers the preset listing (the testbeds
// included) and the spec-error exit path.
func TestScenarioListAndErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-scenario", "list"}, &out, &errb); code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	for _, want := range []string{"grid-city", "strip-highway", "cluster-town", "vanlan", "dieselnet1", "dieselnet6"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("preset %s missing from list:\n%s", want, out.String())
		}
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-scenario", "grid-city,bogus=1"}, &out, &errb); code != 2 {
		t.Errorf("bad override: exit %d, want 2", code)
	}
}
