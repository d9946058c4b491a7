// webdrive reproduces the paper's Web-browsing evaluation (Fig 9): a
// vehicle repeatedly fetches a 10 KB page over mini-TCP while driving,
// with the paper's 10-second no-progress abort. It compares hard handoff,
// diversity without salvaging, and full ViFi — isolating what each
// mechanism buys, exactly as Fig 9a does.
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
	if err := run(os.Stdout, 23, 12*time.Minute); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed int64, airtime time.Duration) error {
	arms := []struct {
		name string
		cfg  vifi.Protocol
	}{
		{"BRR (hard handoff)", vifi.HardHandoff()},
		{"Only Diversity", vifi.DiversityOnly()},
		{"ViFi (full)", vifi.DefaultProtocol()},
	}

	fmt.Fprintln(w, "Web browsing while driving: repeated 10 KB fetches on VanLAN")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s %10s %12s %12s %18s\n",
		"protocol", "completed", "median (s)", "p90 (s)", "transfers/session")
	for _, arm := range arms {
		// The VanLAN testbed is a preset: a fleet of one vehicle.
		d, err := vifi.NewScenario(seed, "vanlan,app=tcp", arm.cfg)
		if err != nil {
			return err
		}
		res, err := d.RunFleet(airtime)
		if err != nil {
			return err
		}
		m := res.PerVehicle[0]
		fmt.Fprintf(w, "%-20s %10d %12.2f %12.2f %18.1f\n",
			arm.name, m.Completed, m.TransferQuantile(0.5),
			m.TransferQuantile(0.9), m.TransfersPerSession())
	}
	fmt.Fprintln(w, "\npaper shape: ViFi doubles successful transfers; salvaging adds ~10% over diversity alone")
	return nil
}
