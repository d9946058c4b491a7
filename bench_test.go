package vifi

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations from DESIGN.md. Each benchmark regenerates its experiment at
// a reduced scale per iteration (absolute durations are simulation
// virtual-time; wall time per iteration stays in seconds). Run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or cmd/vifi-bench for paper-scale reports.

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/experiment"
)

// benchScale keeps a single benchmark iteration around a second or two.
const benchScale = 0.1

// radioScale is the smaller multiplier for the radio-count sweep: its
// 10000-radio top arm simulates a full metro deployment per iteration,
// so the standard scale would push one iteration past a minute.
const radioScale = 0.02

// protoScale keeps the protocol-occupancy sweep's iteration short: its
// arms overlap scale-radio's, so it needs only enough simulated time for
// occupancy to saturate (one staleness window), not for link metrics.
const protoScale = 0.01

func benchExperiment(b *testing.B, id string) {
	benchExperimentScaled(b, id, benchScale)
}

func benchExperimentScaled(b *testing.B, id string, scale float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiment.Run(id, experiment.Options{Seed: int64(42 + i), Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + rep.String())
		}
	}
}

// BenchmarkFig1 regenerates Fig 1: the deployment layout maps.
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2 regenerates Fig 2: packets/day vs number of basestations
// for the six handoff policies.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Fig 3: trip connectivity timelines and the
// session-length CDF.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Fig 4: median session length vs the adequacy
// definition.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Fig 5: CDFs of basestations audible per
// second across the three environments.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Fig 6: loss burstiness and cross-BS
// independence.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Fig 7: ViFi's link-layer sessions against the
// oracle and practical policies.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Fig 8: BRR vs ViFi trip timelines.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Fig 9: VanLAN TCP transfer times and
// transfers per session.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig 10: DieselNet TCP transfers/second.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig 11: median uninterrupted VoIP session
// lengths.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig 12: medium-usage efficiency.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkTable1 regenerates Table 1: the detailed coordination
// statistics.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2: the coordination-formulation
// comparison.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkAblateAux regenerates the §5.5.2 symmetric-auxiliary study.
func BenchmarkAblateAux(b *testing.B) { benchExperiment(b, "ablate-aux") }

// BenchmarkAblateDiversity regenerates the §3.4.1 diversity-extent study.
func BenchmarkAblateDiversity(b *testing.B) { benchExperiment(b, "ablate-diversity") }

// BenchmarkAblateBackplane regenerates the backplane-capacity study.
func BenchmarkAblateBackplane(b *testing.B) { benchExperiment(b, "ablate-backplane") }

// BenchmarkAblateSalvage regenerates the salvage-window study.
func BenchmarkAblateSalvage(b *testing.B) { benchExperiment(b, "ablate-salvage") }

// BenchmarkAblateRetx regenerates the retransmission-percentile study.
func BenchmarkAblateRetx(b *testing.B) { benchExperiment(b, "ablate-retx") }

// BenchmarkScaleFleet regenerates the fleet-size scaling sweep over the
// generated city grid.
func BenchmarkScaleFleet(b *testing.B) { benchExperiment(b, "scale-fleet") }

// BenchmarkScaleFleetMetrics is BenchmarkScaleFleet with FTDC-style
// sampling attached at a 1 s sim-time interval; the delta against
// ScaleFleet is the observability layer's whole overhead budget, and
// the benchcmp gate keeps it pinned.
func BenchmarkScaleFleetMetrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := experiment.NewEngine(1)
		eng.EnableMetrics(time.Second)
		_, err := experiment.Run("scale-fleet", experiment.Options{
			Seed: int64(42 + i), Scale: benchScale, Engine: eng,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(experiment.TakeRecordings()) == 0 {
			b.Fatal("sampling produced no recordings")
		}
	}
}

// BenchmarkScaleDensity regenerates the basestation-density scaling sweep.
func BenchmarkScaleDensity(b *testing.B) { benchExperiment(b, "scale-density") }

// BenchmarkScaleRadio regenerates the radio-count scaling sweep (100 →
// 10000 radios at fixed traffic) on the channel's spatially indexed path.
func BenchmarkScaleRadio(b *testing.B) { benchExperimentScaled(b, "scale-radio", radioScale) }

// BenchmarkScaleProtocol regenerates the protocol-occupancy sweep (500 →
// 10000 radios); its allocation gate is what pins the O(neighbors)
// beaconing path in CI — a rescan regression at 10000 radios shows up
// here as an allocs/op and wall-time jump.
func BenchmarkScaleProtocol(b *testing.B) { benchExperimentScaled(b, "scale-protocol", protoScale) }

// shardScale keeps the sharded-identity sweep's iteration short: five
// arms of the 216-basestation districted metro, three of them running
// multi-kernel (2- and 4-shard) executions whose results must match the
// serial arm byte-for-byte.
const shardScale = 0.02

// BenchmarkScaleShard regenerates the sharded-execution identity sweep;
// its allocation gate pins the coupled-kernel path (ghost attachment,
// barrier exchange, per-port backplane streams) against regressions.
func BenchmarkScaleShard(b *testing.B) { benchExperimentScaled(b, "scale-shard", shardScale) }

// BenchmarkScaleShardHalo regenerates the halo-band sharding identity
// sweep on the un-districted metro grid; its gate pins the stripe-lane
// delivery path (gang dispatch, lane pools, candidate-order commit)
// against wall-time and allocation regressions.
func BenchmarkScaleShardHalo(b *testing.B) { benchExperimentScaled(b, "scale-shard-halo", shardScale) }

// BenchmarkScaleAppTCP regenerates the per-vehicle TCP application sweep.
func BenchmarkScaleAppTCP(b *testing.B) { benchExperiment(b, "scale-app-tcp") }

// BenchmarkScaleAppVoIP regenerates the per-vehicle VoIP application sweep.
func BenchmarkScaleAppVoIP(b *testing.B) { benchExperiment(b, "scale-app-voip") }
