package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/obs"
)

func writeTestRecording(t *testing.T) string {
	t.Helper()
	rec := obs.NewRecording(
		map[string]string{"kind": "test", "spec": "unit"},
		time.Second, time.Second,
		[]obs.SeriesDef{{Name: "radio.tx", Kind: obs.Counter}, {Name: "sim.heap", Kind: obs.Gauge}},
	)
	rec.Append(3, 10)
	rec.Append(7, 8)
	rec.Append(12, 11)
	path := filepath.Join(t.TempDir(), "rec.ftdc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteAll(f, []*obs.Recording{rec}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummary(t *testing.T) {
	path := writeTestRecording(t)
	var out, errOut bytes.Buffer
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{
		"recording: kind=test spec=unit",
		"2 series · 3 rows · every 1s from 1s",
		"radio.tx",
		"final 12",
		"sim.heap",
		"final 11",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q in:\n%s", want, s)
		}
	}
}

func TestDumpAndSeries(t *testing.T) {
	path := writeTestRecording(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-dump", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "time\tradio.tx\tsim.heap") ||
		!strings.Contains(out.String(), "2s\t7\t8") {
		t.Errorf("dump output wrong:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-series", "radio.tx", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "3s\t12") {
		t.Errorf("series output wrong:\n%s", out.String())
	}
}

func TestUnknownSeries(t *testing.T) {
	path := writeTestRecording(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-series", "radio.txx", path}, &out, &errOut); code != 1 {
		t.Errorf("unknown series: exit %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("unknown series printed %q", out.String())
	}
	for _, want := range []string{`"radio.txx"`, "radio.tx, sim.heap"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("error %q lacks %q", errOut.String(), want)
		}
	}
}

func TestJSONRoundTrips(t *testing.T) {
	path := writeTestRecording(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	recs, err := obs.ReadJSONAll(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Rows() != 3 {
		t.Fatalf("JSON round-trip: %d recordings", len(recs))
	}
}

func TestBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"/no/such/file.ftdc"}, &out, &errOut); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}
