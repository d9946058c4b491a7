package main

import (
	"strings"
	"testing"
	"time"
)

// TestSmoke runs four vehicles for a short airtime so it stays fast in
// CI, and pins the whole output: an even 4-way split over 4 vehicles
// puts one vehicle on each app, so every application block appears for
// both arms.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 42, "grid,vehicles=4,app=mixed", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `Mixed application fleet on a generated deployment: grid,vehicles=4,app=mixed

BRR (hard handoff) — 12 basestations, 4 vehicles
  cbr  1 veh: 78% delivered, median session 21 s
  tcp  1 veh: 2 transfers (2 aborted), median 3.95 s
  voip 1 veh: mean MoS 2.74, 0 disruptions (0.00 /call·min)
  web  1 veh: 1 pages (1 aborted), median 8.22 s

ViFi (full) — 12 basestations, 4 vehicles
  cbr  1 veh: 89% delivered, median session 21 s
  tcp  1 veh: 0 transfers (2 aborted), median 0.00 s
  voip 1 veh: mean MoS 3.05, 0 disruptions (0.00 /call·min)
  web  1 veh: 1 pages (1 aborted), median 8.90 s

paper shape: ViFi's diversity roughly doubles TCP throughput and
halves VoIP disruptions versus hard handoff (§5.3), here measured
while four applications contend for the same basestations.
spec knobs: app=cbr|tcp|voip|web|mixed, mix=cbr:tcp:voip:web,
xfer=<bytes>, think=<dur> — see internal/scenario.
`

func TestBadSpec(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 1, "grid,app=nope", time.Second); err == nil {
		t.Error("bad app spec accepted")
	}
}
