package main

import (
	"strings"
	"testing"
	"time"
)

// TestSmoke runs a small fleet for a short airtime so it stays fast in
// CI, and pins the whole output.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 42, "grid-small,vehicles=4", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `City fleet on a generated deployment: grid-small,vehicles=4

protocol                delivered/s     delivery   median session (s)   interrupts/veh·h
BRR (hard handoff)             19.2          58%                   11                316
ViFi (diversity)               20.2          61%                   11                189

presets: [cluster cluster-town dieselnet1 dieselnet6 grid grid-city grid-metro grid-small metro-districts strip strip-highway vanlan]
override anything: e.g. "cluster-town,vehicles=32,bs=80,range=220"
`

func TestBadSpec(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 1, "grid-city,bogus=1", time.Second); err == nil {
		t.Error("bad spec accepted")
	}
}
