package main

import (
	"strings"
	"testing"
	"time"
)

// TestSmoke runs the example end to end at a reduced airtime so it stays
// fast in CI, and pins its whole output.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 7, 45*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunError: a run the library refuses (here a zero airtime) comes
// back from run as an error for main to report, not as a panic.
func TestRunError(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 1, 0); err == nil {
		t.Fatalf("zero airtime accepted; output:\n%s", out.String())
	}
}

const want = `ViFi quickstart: VoIP from a moving vehicle, VanLAN campus

protocol               median session (s)   mean MoS  interruptions
BRR (hard handoff)                     42       2.49              0
ViFi (diversity)                       42       2.49              0

ViFi lengthens disruption-free calls by 1.0x (paper: ≈2x).
`
