package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// resultFile is what a run writes to -out and what -compare reads.
type resultFile struct {
	Host      *fingerprint         `json:"host"`
	Seed      int64                `json:"seed"`
	Workloads map[string]*wlReport `json:"workloads"`
}

// wlReport is one workload's share of a result file.
type wlReport struct {
	Ops       int `json:"ops"`
	OpsFailed int `json:"ops_failed"`
	// HostFactor is what the three times in EndToEnd were divided by.
	HostFactor float64 `json:"host_factor"`
	// SimDigest is the SHA-256 of the report text op 0 printed; Digests
	// holds every seed's, so two commits' simulated statistics can be
	// compared exactly.
	SimDigest string                 `json:"sim_digest"`
	Digests   map[string]string      `json:"digests"`
	EndToEnd  map[string]stat        `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report reduces wr to its part of the result file. Per-layer metrics
// exist only after a traced pass.
func (wr *wlResult) report(host *fingerprint) *wlReport {
	rep := &wlReport{
		Ops: wr.attempted, OpsFailed: wr.failed, HostFactor: hostFactor(wr.calib),
		Digests: map[string]string{}, Failures: wr.failures,
	}
	for _, op := range wr.ops {
		rep.Digests[strconv.FormatInt(op.Seed, 10)] = op.Digest
	}
	if len(wr.ops) > 0 {
		rep.SimDigest = wr.ops[0].Digest
	}
	rep.EndToEnd = wr.endToEndStats()
	if wr.traced != nil {
		rep.PerLayer = map[string]metricValue{}
		values := layerMetrics(wr, rep.EndToEnd, host)
		for _, m := range perLayer {
			rep.PerLayer[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	}
	return rep
}

// print writes every metric by name with its unit, then the checks.
func (rep *wlReport) print(w io.Writer, name string) {
	fmt.Fprintf(w, "\n== %s ==\n", name)
	fmt.Fprintf(w, "ops %d, ops_failed %d, sim_digest %.16s, host factor %.3f\n", rep.Ops, rep.OpsFailed, rep.SimDigest, rep.HostFactor)
	fmt.Fprintf(w, "%-28s %14s %14s %14s %4s  %s\n", "end-to-end", "value", "q1", "q3", "n", "unit")
	for _, m := range endToEnd {
		s := rep.EndToEnd[m.Name]
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %4d  %s\n", m.Name, s.Value, s.Q1, s.Q3, s.N, s.Unit)
	}
	if rep.PerLayer != nil {
		fmt.Fprintf(w, "%-28s %14s  %s\n", "per-layer", "value", "unit")
		for _, m := range perLayer {
			v := rep.PerLayer[m.Name]
			fmt.Fprintf(w, "%-28s %14.6g  %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	if len(rep.Failures) == 0 {
		fmt.Fprintln(w, "checks: ok")
	}
}

// driverLine is the one-line result the benchmark contract asks for:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (rep *wlReport) driverLine(traced bool) ([]byte, error) {
	metrics := map[string]metricValue{}
	if traced {
		for k, v := range rep.PerLayer {
			metrics[k] = v
		}
	} else {
		for name, s := range rep.EndToEnd {
			metrics[name] = metricValue{s.Value, s.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.OpsFailed == 0, rep.Ops, rep.OpsFailed, metrics})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
