// voipdrive reproduces the paper's VoIP evaluation (Fig 11) across all
// three environments: a commuter keeps a call up while the vehicle moves;
// we measure how long the call stays usable before a severe disruption
// (MoS < 2 for three seconds) under ViFi and under hard handoff.
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
	if err := run(os.Stdout, 11, 10*time.Minute); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed int64, airtime time.Duration) error {
	// Each testbed is a preset: a fleet of one vehicle.
	envs := []struct{ name, spec string }{
		{"VanLAN (live channel)", "vanlan,app=voip"},
		{"DieselNet channel 1", "dieselnet1,app=voip"},
		{"DieselNet channel 6", "dieselnet6,app=voip"},
	}
	call := func(spec string, cfg vifi.Protocol) (*vifi.FleetRun, error) {
		d, err := vifi.NewScenario(seed, spec, cfg)
		if err != nil {
			return nil, err
		}
		return d.RunFleet(airtime)
	}

	fmt.Fprintln(w, "VoIP while driving: disruption-free session length (G.729, MoS<2 rule)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-24s %12s %12s %7s %16s\n", "environment", "BRR (s)", "ViFi (s)", "gain", "interruptions")
	for _, e := range envs {
		brrRun, err := call(e.spec, vifi.HardHandoff())
		if err != nil {
			return err
		}
		vfRun, err := call(e.spec, vifi.DefaultProtocol())
		if err != nil {
			return err
		}
		brr, vf := brrRun.PerVehicle[0].VoIP, vfRun.PerVehicle[0].VoIP
		gain := "-"
		if brr.MedianSessionSec > 0 {
			gain = fmt.Sprintf("%.1fx", vf.MedianSessionSec/brr.MedianSessionSec)
		}
		fmt.Fprintf(w, "%-24s %12.0f %12.0f %7s %9d → %4d\n", e.name,
			brr.MedianSessionSec, vf.MedianSessionSec, gain,
			brr.Interruptions, vf.Interruptions)
	}
	fmt.Fprintln(w, "\npaper shape: gains of ~2x on VanLAN and ≥1.5x on DieselNet (Fig 11);")
	fmt.Fprintln(w, "single runs are noisy — cmd/vifi-bench pools several for the stable figure")
	return nil
}
