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
	if err := run(&out, 23, 45*time.Second); err != nil {
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

const want = `Web browsing while driving: repeated 10 KB fetches on VanLAN

protocol              completed   median (s)      p90 (s)  transfers/session
BRR (hard handoff)           19         0.59         5.19               19.0
Only Diversity               31         0.42         1.69               31.0
ViFi (full)                  34         0.42         1.49               34.0

paper shape: ViFi doubles successful transfers; salvaging adds ~10% over diversity alone
`
