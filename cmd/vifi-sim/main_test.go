package main

import (
	"strings"
	"testing"
)

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		{"-env", "mars"},
		{"-protocol", "carrier-pigeon"},
		{"-workload", "quic"},
		{"-nope"},
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
	args := []string{"-env", "vanlan", "-protocol", "vifi", "-workload", "voip", "-duration", "45s"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"environment=VanLAN", "protocol=vifi", "mean MoS"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestMultiProtocolCompare exercises the engine-backed comparison path:
// two arms, parallel pool, both sections present in order.
func TestMultiProtocolCompare(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-env", "dieselnet1", "-protocol", "vifi,brr", "-workload", "tcp",
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
	if strings.Count(s, "completed transfers:") != 2 {
		t.Errorf("want one TCP summary per protocol:\n%s", s)
	}
}

func TestProbesWorkload(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-workload", "probes", "-duration", "30s"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if strings.Count(out.String(), "median session") != 4 {
		t.Errorf("want four adequacy rows:\n%s", out.String())
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

// TestScenarioListAndErrors covers the preset listing, the spec-error
// exit path and the -env/-workload values a scenario run ignores.
func TestScenarioListAndErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-scenario", "list"}, &out, &errb); code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	for _, want := range []string{"grid-city", "strip-highway", "cluster-town"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("preset %s missing from list:\n%s", want, out.String())
		}
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-scenario", "grid-city,bogus=1"}, &out, &errb); code != 2 {
		t.Errorf("bad override: exit %d, want 2", code)
	}
	// -scenario replaces -env and -workload: a value there is ignored,
	// not rejected.
	out.Reset()
	errb.Reset()
	args := []string{"-scenario", "grid-small,vehicles=2", "-env", "mars", "-workload", "quic", "-duration", "5s"}
	if code := run(args, &out, &errb); code != 0 {
		t.Errorf("ignored -env/-workload: exit %d, stderr: %s", code, errb.String())
	}
}
