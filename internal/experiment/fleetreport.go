package experiment

import (
	"fmt"
	"io"
	"time"

	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/workload"
)

// FprintFleetReport renders one scenario run's result block: the header
// line, the deployment summary, per-application metrics, the fault
// summary (faulted runs only), and the channel counters. Both vifi-sim
// and the vifi-serve session report use this renderer, which is what
// makes the daemon's final report byte-identical to the batch CLI's for
// the same (spec, protocol, duration, seed). The header carries the
// duration the run covered, run.Duration: a trace-driven testbed clamps
// the requested one to its trace.
func FprintFleetReport(w io.Writer, run *FleetAppRun, protocol string, _ time.Duration, seed int64) {
	fmt.Fprintf(w, "scenario=%s protocol=%s duration=%v seed=%d\n", run.SpecKey, protocol, run.Duration, seed)
	fmt.Fprintf(w, "deployment:             %d basestations, %d vehicles\n", run.BSCount, run.Vehicles)
	printFleetApps(w, run)
	printFaults(w, run.Faults)
	fmt.Fprintf(w, "rx collisions:          %d over %d transmissions\n\n", run.Collisions, run.Transmissions)
}

// printFleetApps renders one application-metric block per app present in
// the fleet (a pure-CBR fleet reads exactly like the original link-level
// output; mixed fleets get one block per assigned app).
func printFleetApps(w io.Writer, run *FleetAppRun) {
	if cbr := run.Apps.App(workload.CBRKind); cbr.Vehicles > 0 {
		fmt.Fprintf(w, "aggregate delivered:    %.1f pkt/s (both directions)\n", run.DeliveredPerSec())
		fmt.Fprintf(w, "fleet delivery ratio:   %.0f%%\n", 100*run.DeliveryRatio())
		fmt.Fprintf(w, "median session (1s,50%%): %.0f s\n", run.MedianSession(time.Second, 0.5))
		fmt.Fprintf(w, "interruptions:          %.0f per vehicle-hour\n", run.Interruptions())
	}
	if tcp := run.Apps.App(workload.TCPKind); tcp.Vehicles > 0 {
		fmt.Fprintf(w, "tcp transfers:          completed %d, aborted %d (%d vehicles)\n",
			tcp.Completed, tcp.Aborted, tcp.Vehicles)
		fmt.Fprintf(w, "median transfer time:   %.2f s (p90 %.2f s)\n",
			tcp.MedianTransferSec, tcp.P90TransferSec)
	}
	if v := run.Apps.App(workload.VoIPKind); v.Vehicles > 0 {
		fmt.Fprintf(w, "voip calls:             %d vehicles, mean MoS %.2f\n", v.Vehicles, v.MeanMoS)
		fmt.Fprintf(w, "median disruption-free session: %.0f s\n", v.MedianSessionSec)
		fmt.Fprintf(w, "voip disruptions:       %d (%.2f per call-minute)\n",
			v.Disruptions, v.DisruptionsPerMin)
	}
	if web := run.Apps.App(workload.WebKind); web.Vehicles > 0 {
		fmt.Fprintf(w, "web pages:              loaded %d, aborted %d (%d vehicles)\n",
			web.Completed, web.Aborted, web.Vehicles)
		fmt.Fprintf(w, "median page time:       %.2f s (p90 %.2f s)\n",
			web.MedianTransferSec, web.P90TransferSec)
	}
}

// printFaults renders the injected-fault timeline summary of a faulted
// run; fault-free runs (nil report) print nothing.
func printFaults(w io.Writer, f *FaultReport) {
	if f == nil {
		return
	}
	fmt.Fprintf(w, "injected faults:       ")
	any := false
	for l := fault.Layer(0); l < fault.NumLayers; l++ {
		if f.Windows[l] == 0 {
			continue
		}
		if any {
			fmt.Fprintf(w, ",")
		}
		fmt.Fprintf(w, " %s: %d outages (%.1fs down)", l, f.Windows[l], f.DownSec[l])
		any = true
	}
	if !any {
		fmt.Fprintf(w, " none (processes drew no outages)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fleet availability:     %.1f%% (%d silent bins, %d fault-attributable)\n",
		100*f.Availability, f.GapBins, f.GapBinsFault)
	if f.Restores > 0 {
		fmt.Fprintf(w, "post-restore recovery:  %d/%d recovered, mean %.2f s to first delivery\n",
			f.Recovered, f.Restores, f.RecoveryMeanSec)
	}
}
