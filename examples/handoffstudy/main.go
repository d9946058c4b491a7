// handoffstudy reproduces the paper's §3 measurement study: six handoff
// policies replayed over synthetic VanLAN probe logs — aggregate packet
// delivery (Fig 2's point) versus uninterrupted-session length (Fig 3/4's
// point). The punchline is the paper's motivation for ViFi: policies that
// look interchangeable in aggregate differ hugely for interactive use.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/vanlan/vifi/internal/handoff"
	"github.com/vanlan/vifi/internal/trace"
)

func main() {
	run(os.Stdout, 31, 8)
}

func run(w io.Writer, seed int64, trips int) {
	fmt.Fprintf(w, "Generating VanLAN probe logs (%d shuttle trips)...\n", trips)
	pt := trace.GenerateVanLANProbes(seed, trips)

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %16s %26s\n", "policy", "packets (both)", "median session @50%/1s (s)")
	var allPkts, brrPkts int
	for _, p := range handoff.AllPolicies() {
		res := handoff.Evaluate(pt, p)
		med := res.MedianSession(time.Second, 0.5)
		fmt.Fprintf(w, "%-10s %16d %26.0f\n", p.Name(), res.Delivered(), med)
		switch p.Name() {
		case "AllBSes":
			allPkts = res.Delivered()
		case "BRR":
			brrPkts = res.Delivered()
		}
	}
	fmt.Fprintln(w)
	if allPkts > 0 {
		fmt.Fprintf(w, "aggregate: BRR delivers %.0f%% of the AllBSes oracle —\n", 100*float64(brrPkts)/float64(allPkts))
	}
	fmt.Fprintln(w, "yet its uninterrupted sessions are several times shorter.")
	fmt.Fprintln(w, "That gap is the case for basestation diversity (§3).")
}
