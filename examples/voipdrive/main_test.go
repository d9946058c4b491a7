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
	if err := run(&out, 11, 40*time.Second); err != nil {
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

const want = `VoIP while driving: disruption-free session length (G.729, MoS<2 rule)

environment                   BRR (s)     ViFi (s)    gain    interruptions
VanLAN (live channel)              36           36    1.0x         0 →    0
DieselNet channel 1                 0            0       -         1 →    1
DieselNet channel 6                 0            0       -         1 →    1

paper shape: gains of ~2x on VanLAN and ≥1.5x on DieselNet (Fig 11);
single runs are noisy — cmd/vifi-bench pools several for the stable figure
`
