// Quickstart: drive a vehicle round the VanLAN campus on a phone call and
// compare disruption-free VoIP call time under ViFi and under the
// hard-handoff baseline — the paper's headline claim in ~50 lines.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/vanlan/vifi"
)

func main() {
	if err := run(os.Stdout, 7, 8*time.Minute); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed int64, airtime time.Duration) error {
	fmt.Fprintln(w, "ViFi quickstart: VoIP from a moving vehicle, VanLAN campus")
	fmt.Fprintln(w)

	arms := []struct {
		name string
		cfg  vifi.Protocol
	}{
		{"BRR (hard handoff)", vifi.HardHandoff()},
		{"ViFi (diversity)", vifi.DefaultProtocol()},
	}
	fmt.Fprintf(w, "%-22s %18s %10s %14s\n", "protocol", "median session (s)", "mean MoS", "interruptions")
	var medians []float64
	for _, arm := range arms {
		// The VanLAN testbed is a preset: a fleet of one vehicle.
		d, err := vifi.NewScenario(seed, "vanlan,app=voip", arm.cfg)
		if err != nil {
			return err
		}
		res, err := d.RunFleet(airtime)
		if err != nil {
			return err
		}
		q := res.PerVehicle[0].VoIP
		fmt.Fprintf(w, "%-22s %18.0f %10.2f %14d\n", arm.name, q.MedianSessionSec, q.MeanMoS, q.Interruptions)
		medians = append(medians, q.MedianSessionSec)
	}
	fmt.Fprintln(w)
	if brr, vf := medians[0], medians[1]; brr > 0 {
		fmt.Fprintf(w, "ViFi lengthens disruption-free calls by %.1fx (paper: ≈2x).\n", vf/brr)
	}
	return nil
}
