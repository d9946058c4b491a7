package experiment

import (
	"fmt"
	"sort"
)

// Runner produces one paper figure, table or ablation report.
type Runner func(Options) *Report

// figures maps the reports whose job is not only fleet runs to their
// runners: Fig 1–6 reduce VanLAN probe and DieselNet traces, Fig 7 adds
// trace-replayed handoff oracles to its two live runs, and ablate-aux
// builds its symmetric cell by hand. Every report that is fleet runs and
// one reduction — Fig 8–12, Tables 1 and 2, the other ablations and the
// scale-* reports — is a row of the sweeps table (sweeps.go); Run and IDs
// consult both.
var figures = map[string]Runner{
	"fig1": Fig1,
	"fig2": Fig2,
	"fig3": Fig3,
	"fig4": Fig4,
	"fig5": Fig5,
	"fig6": Fig6,
	"fig7": Fig7,

	// Ablations and extensions (DESIGN.md §4).
	"ablate-aux": AblateAux,
}

// IDs returns all experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(figures)+len(sweeps))
	for id := range figures {
		out = append(out, id)
	}
	for _, s := range sweeps {
		out = append(out, s.id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id. A figure, and a sweep on a testbed,
// always yields its report; any other sweep fails — before simulating
// anything — when Options.Scenario does not parse or makes one of its
// arms an invalid deployment.
func Run(id string, o Options) (*Report, error) {
	if r, ok := figures[id]; ok {
		return r(o), nil
	}
	if s, ok := sweepByID(id); ok {
		return s.run(o)
	}
	return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
}

// PaperOrder lists the paper's tables and figures in presentation order.
func PaperOrder() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "table1", "table2"}
}
