package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// mkRecording builds a recording from explicit rows.
func mkRecording(meta map[string]string, series []SeriesDef, rows [][]int64) *Recording {
	r := NewRecording(meta, time.Second, time.Second, series)
	for _, row := range rows {
		r.Append(row...)
	}
	return r
}

// TestBinaryRoundTrip pins encode→decode equality across the encoder's
// edge cases: extreme magnitudes (MinInt64/MaxInt64 deltas), sign
// alternation, zero runs spanning chunk boundaries, empty recordings and
// multi-recording streams.
func TestBinaryRoundTrip(t *testing.T) {
	series := []SeriesDef{{Name: "a", Kind: Counter}, {Name: "b", Kind: Gauge}}
	long := make([][]int64, 3*chunkRows+7)
	for i := range long {
		// Column a: long flat stretches (zero-RLE across chunk borders)
		// broken by occasional jumps; column b: alternating extremes.
		a := int64(i / 300)
		b := int64(math.MaxInt64)
		if i%2 == 1 {
			b = math.MinInt64
		}
		long[i] = []int64{a, b}
	}
	recs := []*Recording{
		mkRecording(map[string]string{"spec": "grid-city", "seed": "17"}, series, [][]int64{
			{0, 5}, {3, -5}, {3, math.MaxInt64}, {math.MinInt64, math.MaxInt64}, {math.MaxInt64, 0},
		}),
		mkRecording(nil, series, nil), // zero rows
		mkRecording(map[string]string{"k": ""}, series, long),
		mkRecording(nil, nil, nil), // zero series
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d recordings, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if !recs[i].Equal(got[i]) {
			t.Errorf("recording %d did not round-trip", i)
		}
	}

	// The file variant (the commands' -metrics writer) carries the same
	// bytes, and a path that cannot be created is the caller's error.
	path := filepath.Join(t.TempDir(), "run.ftdc")
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Errorf("WriteFile wrote %d bytes, WriteAll %d: the two encodings differ", len(onDisk), buf.Len())
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "missing", "run.ftdc"), recs); err == nil {
		t.Error("WriteFile into a missing directory returned no error")
	}
}

// TestBinaryCompresssesFlatCounters sanity-checks the point of the delta
// encoding: a flat counter costs roughly a token per chunk, not per row.
func TestBinaryCompressesFlatCounters(t *testing.T) {
	series := []SeriesDef{{Name: "flat", Kind: Counter}}
	rows := make([][]int64, 10000)
	for i := range rows {
		rows[i] = []int64{123456}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Recording{mkRecording(nil, series, rows)}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1024 {
		t.Errorf("10000 flat samples encoded to %d bytes; want ≤ 1 KiB", buf.Len())
	}
}

// TestJSONRoundTrip pins the JSON codec against the same recordings.
func TestJSONRoundTrip(t *testing.T) {
	series := []SeriesDef{{Name: "x", Kind: Counter}, {Name: "y", Kind: Gauge}}
	recs := []*Recording{
		mkRecording(map[string]string{"spec": "s"}, series, [][]int64{{1, -1}, {2, math.MinInt64}}),
		mkRecording(nil, series, nil),
	}
	var buf bytes.Buffer
	if err := WriteJSONAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d recordings, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if !recs[i].Equal(got[i]) {
			t.Errorf("recording %d did not round-trip through JSON", i)
		}
	}
}

// TestReadRejectsGarbage pins the header validation.
func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("not a recording stream"))); err == nil {
		t.Error("garbage stream decoded without error")
	}
	if _, err := ReadAll(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream decoded without error")
	}
}

// TestSamplerCadence pins the tick schedule and the recorded values: one
// row per interval multiple in (0, until], reading the pull functions at
// exactly the tick's simulation time.
func TestSamplerCadence(t *testing.T) {
	k := sim.NewKernel(1)
	var events int64
	reg := NewRegistry()
	reg.Counter("events", func() int64 { return events })
	reg.Gauge("clock.ms", func() int64 { return int64(k.Now() / time.Millisecond) })
	s := Attach(k, reg, 10*time.Millisecond, 95*time.Millisecond, map[string]string{"run": "t"})
	for i := 1; i <= 9; i++ {
		k.At(time.Duration(i)*10*time.Millisecond-time.Millisecond, func() { events++ })
	}
	k.RunUntil(200 * time.Millisecond)
	rec := s.Recording()
	if rec.Rows() != 9 {
		t.Fatalf("rows = %d, want 9 (ticks at 10ms..90ms)", rec.Rows())
	}
	for i := 0; i < rec.Rows(); i++ {
		if at := rec.At(i); at != time.Duration(i+1)*10*time.Millisecond {
			t.Errorf("row %d at %v, want %v", i, at, time.Duration(i+1)*10*time.Millisecond)
		}
		row := rec.Row(i)
		if row[0] != int64(i+1) {
			t.Errorf("row %d events = %d, want %d", i, row[0], i+1)
		}
		if row[1] != int64((i+1)*10) {
			t.Errorf("row %d clock = %d, want %d", i, row[1], (i+1)*10)
		}
	}
}

// TestSamplerTickDoesNotAllocate guards the hot path: once the kernel
// and the recording's backing array are warm, a sampler tick (pull every
// series, append the row, reschedule) must not allocate.
func TestSamplerTickDoesNotAllocate(t *testing.T) {
	k := sim.NewKernel(1)
	var a, b, c int64
	reg := NewRegistry()
	reg.Counter("a", func() int64 { return a })
	reg.Counter("b", func() int64 { return b })
	reg.Gauge("c", func() int64 { return c })
	Attach(k, reg, time.Millisecond, time.Second, nil)
	k.RunUntil(100 * time.Millisecond) // warm: heap grown, backing array live
	now := 100 * time.Millisecond
	allocs := testing.AllocsPerRun(200, func() {
		a++
		b += 3
		c = a - b
		now += time.Millisecond
		k.RunUntil(now)
	})
	if allocs != 0 {
		t.Errorf("sampler tick allocated %.1f objects/run, want 0", allocs)
	}
}

// TestRecordingSnapshot: a snapshot keeps its rows and count while the live
// recording grows into the same backing array, and an Append on the
// snapshot reallocates instead of writing the live rows.
func TestRecordingSnapshot(t *testing.T) {
	k := sim.NewKernel(1)
	reg := NewRegistry()
	reg.Gauge("clock.ms", func() int64 { return int64(k.Now() / time.Millisecond) })
	live := Attach(k, reg, 10*time.Millisecond, time.Second, nil).Recording()
	k.RunUntil(50 * time.Millisecond)
	snap := live.Snapshot()
	if snap.Rows() != 5 || cap(live.data) <= len(live.data) {
		t.Fatalf("snapshot of %d rows, live cap %d len %d; want 5 rows with spare live capacity",
			snap.Rows(), cap(live.data), len(live.data))
	}

	k.RunUntil(200 * time.Millisecond) // the live recording grows in place
	if live.Rows() != 20 || snap.Rows() != 5 {
		t.Fatalf("live %d rows, snapshot %d; want 20 and 5", live.Rows(), snap.Rows())
	}
	for i := 0; i < snap.Rows(); i++ {
		if got, want := snap.Row(i)[0], int64(10*(i+1)); got != want || snap.At(i) != live.At(i) {
			t.Errorf("snapshot row %d = %d at %v, want %d at %v", i, got, snap.At(i), want, live.At(i))
		}
	}

	snap.Append(-1)
	if got := live.Row(5)[0]; got != 60 {
		t.Errorf("Append on the snapshot wrote the live row 5: %d, want 60", got)
	}
	if snap.Rows() != 6 || snap.Row(5)[0] != -1 || live.Rows() != 20 {
		t.Errorf("after Append: snapshot %d rows ending %d, live %d rows", snap.Rows(), snap.Row(snap.Rows() - 1)[0], live.Rows())
	}
}
