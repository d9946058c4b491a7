package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// batchReport renders the reference report through the same batch path
// vifi-sim uses (no sampling attached).
func batchReport(t *testing.T, name string, seed int64, dur time.Duration, shards int) string {
	t.Helper()
	spec, err := scenario.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	run, err := experiment.RunFleetAppWorkload(seed, spec, core.DefaultConfig(), dur, shards)
	if err != nil {
		t.Fatal(err)
	}
	experiment.TakeShardLog()
	var buf bytes.Buffer
	experiment.FprintFleetReport(&buf, run, "vifi", dur, seed)
	return buf.String()
}

func startTestServer(t *testing.T, maxActive int) (*server, *httptest.Server) {
	t.Helper()
	sv := newServer(maxActive)
	ts := httptest.NewServer(sv.handler())
	t.Cleanup(ts.Close)
	return sv, ts
}

func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, b)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// waitEnd blocks until s has reached a terminal state: the runner wakes
// grew on every terminal transition.
func waitEnd(s *session) {
	for {
		_, grew, ended := s.view()
		if ended {
			return
		}
		<-grew
	}
}

func waitDone(t *testing.T, sv *server, id string) {
	t.Helper()
	sv.mu.Lock()
	s := sv.sessions[id]
	sv.mu.Unlock()
	if s == nil {
		t.Fatalf("no session %s", id)
	}
	waitEnd(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != "done" {
		t.Fatalf("session %s ended %s: %v", id, s.state, s.err)
	}
}

// TestServeReportMatchesBatch: a session's final report is the batch
// report, for a generated fleet and for a paper testbed alike.
func TestServeReportMatchesBatch(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	for i, scn := range []string{"grid-small", "vanlan,app=voip"} {
		id := createSession(t, ts, fmt.Sprintf(`{"scenario":%q,"duration":"30s","seed":17}`, scn))
		if want := fmt.Sprintf("s%d", i+1); id != want {
			t.Fatalf("id = %q, want %s", id, want)
		}
		waitDone(t, sv, id)

		code, got := get(t, ts, "/v1/sessions/"+id+"/report")
		if code != http.StatusOK {
			t.Fatalf("%s report: status %d: %s", scn, code, got)
		}
		want := batchReport(t, scn, 17, 30*time.Second, 1)
		if string(got) != want {
			t.Errorf("%s: serve report differs from batch:\n--- serve ---\n%s--- batch ---\n%s", scn, got, want)
		}
	}
}

// TestServeTraceDrivenShardsRunSerially: a session asking a trace-driven
// testbed for shards runs it serially (its trace links have no cutoff to
// shard by) and reports exactly the serial batch run.
func TestServeTraceDrivenShardsRunSerially(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	id := createSession(t, ts, `{"scenario":"dieselnet1,app=tcp","duration":"20s","seed":7,"shards":4}`)
	waitDone(t, sv, id)

	code, got := get(t, ts, "/v1/sessions/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := batchReport(t, "dieselnet1,app=tcp", 7, 20*time.Second, 1)
	if string(got) != want {
		t.Errorf("sharded trace-driven report differs from serial batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}
	var info sessionInfo
	_, b := get(t, ts, "/v1/sessions/"+id)
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.Shards != 1 || info.Lanes != 0 {
		t.Errorf("info shards=%d lanes=%d, want a serial run (1, 0)", info.Shards, info.Lanes)
	}
}

func TestServeShardedReportMatchesBatch(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	id := createSession(t, ts,
		`{"scenario":"metro-districts","duration":"20s","seed":7,"shards":4}`)
	waitDone(t, sv, id)

	code, got := get(t, ts, "/v1/sessions/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := batchReport(t, "metro-districts", 7, 20*time.Second, 4)
	if string(got) != want {
		t.Errorf("sharded serve report differs from batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}
}

func TestServeHaloShardedReportMatchesBatch(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	// grid-metro is un-districted, so shards=4 engages the halo-band
	// stripe lanes inside a single kernel rather than coupled kernels.
	id := createSession(t, ts,
		`{"scenario":"grid-metro,bs=180,vehicles=8","duration":"10s","seed":7,"shards":4}`)
	waitDone(t, sv, id)

	code, got := get(t, ts, "/v1/sessions/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: status %d: %s", code, got)
	}
	want := batchReport(t, "grid-metro,bs=180,vehicles=8", 7, 10*time.Second, 1)
	if string(got) != want {
		t.Errorf("halo serve report differs from serial batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}

	var info sessionInfo
	_, b := get(t, ts, "/v1/sessions/"+id)
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	// One kernel (one sampler contribution per tick), four stripe lanes.
	if info.Shards != 1 || info.Lanes != 4 {
		t.Errorf("info shards=%d lanes=%d, want shards=1 lanes=4", info.Shards, info.Lanes)
	}
}

func TestServePauseResumeDeterminism(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	spec := `{"scenario":"grid-small","duration":"40s","seed":3}`
	plain := createSession(t, ts, spec)
	waitDone(t, sv, plain)

	paused := createSession(t, ts, spec)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+paused+"/pause", "application/json",
		strings.NewReader(`{"at":"10s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: status %d", resp.StatusCode)
	}
	// Wait until the runner actually parks (it may also already be done
	// if the run outran the pause request; both are fine for identity,
	// but normally 40 sim-seconds of stepping loses that race).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info sessionInfo
		_, b := get(t, ts, "/v1/sessions/"+paused)
		if err := json.Unmarshal(b, &info); err != nil {
			t.Fatal(err)
		}
		if info.State == "paused" || info.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never paused: state %s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, err := http.Post(ts.URL+"/v1/sessions/"+paused+"/resume", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	waitDone(t, sv, paused)

	_, a := get(t, ts, "/v1/sessions/"+plain+"/report")
	_, b := get(t, ts, "/v1/sessions/"+paused+"/report")
	if !bytes.Equal(a, b) {
		t.Errorf("pause/resume changed the report:\n--- plain ---\n%s--- paused ---\n%s", a, b)
	}
	ra, rb := recording(t, ts, plain), recording(t, ts, paused)
	rb.Meta["session"] = ra.Meta["session"] // the one field that names the session
	if !ra.Equal(rb) {
		t.Error("pause/resume changed the metrics recording")
	}
}

// hostSession registers and starts a grid-small session the HTTP API
// could not create: edit sets what the API cannot (a config, a pause
// armed before the first step) before the runner starts.
func hostSession(t *testing.T, sv *server, id string, seed int64, dur time.Duration, edit func(*session)) *session {
	t.Helper()
	spec, err := scenario.Parse("grid-small")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(id)
	s.specStr, s.spec, s.protocol, s.cfg = "grid-small", spec, "vifi", core.DefaultConfig()
	s.seed, s.shards, s.duration, s.interval = seed, 1, dur, time.Second
	edit(s)
	sv.mu.Lock()
	sv.sessions[id] = s
	sv.order = append(sv.order, id)
	sv.mu.Unlock()
	go s.runLoop(sv.slots)
	return s
}

// readStream reads a session's metrics stream to its end and returns the
// sample events it carried and whether a done event closed it.
func readStream(t *testing.T, ts *httptest.Server, id string) (rows int, done bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/metrics/stream")
	if err != nil {
		t.Error(err)
		return 0, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {\"at_ns\"") {
			rows++
		}
		if line == "event: done" {
			done = true
		}
	}
	return rows, done
}

// recording downloads a session's recording and decodes it.
func recording(t *testing.T, ts *httptest.Server, id string) *obs.Recording {
	t.Helper()
	code, b := get(t, ts, "/v1/sessions/"+id+"/recording")
	if code != http.StatusOK {
		t.Fatalf("recording of %s: status %d: %s", id, code, b)
	}
	recs, err := obs.ReadAll(bytes.NewReader(b))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recording of %s: %d recordings, %v", id, len(recs), err)
	}
	return recs[0]
}

// TestServeRecordingIsOneHistory: a session keeps one recording, its live
// history. Downloaded while paused and again once done, it carries the
// same meta both times, and the finished rows extend the paused ones.
func TestServeRecordingIsOneHistory(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	// Armed before the runner starts, so the run cannot outrun it.
	s := hostSession(t, sv, "paused", 3, 20*time.Second, func(s *session) {
		if err := s.pause(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if state := s.info().State; state == "paused" {
			break
		} else if state == "done" || state == "failed" || time.Now().After(deadline) {
			t.Fatalf("session never paused: state %s", state)
		}
	}
	mid := recording(t, ts, s.id)
	s.resume()
	waitDone(t, sv, s.id)
	end := recording(t, ts, s.id)

	if mid.Meta["kind"] != "serve" || !maps.Equal(mid.Meta, end.Meta) {
		t.Errorf("meta while paused %v, once done %v; want the one serve meta", mid.Meta, end.Meta)
	}
	if !slices.Equal(mid.Series, end.Series) || mid.Interval != end.Interval || mid.Start != end.Start {
		t.Errorf("schema or cadence moved between the paused and the finished download")
	}
	if mid.Rows() == 0 || end.Rows() <= mid.Rows() {
		t.Fatalf("%d rows while paused, %d once done; want the run to add rows", mid.Rows(), end.Rows())
	}
	for i := 0; i < mid.Rows(); i++ {
		if !slices.Equal(mid.Row(i), end.Row(i)) {
			t.Fatalf("row %d changed between the paused and the finished download", i)
		}
	}
}

// TestServePanickingSessionFails pins the daemon's isolation: a session
// whose simulation panics ends failed with the panic text as its error,
// and a healthy session sharing the (single) slot still ends done with
// the batch-identical report. The HTTP API cannot produce a retransmission
// percentile above 1, so the bad config is set on the session struct: the
// run starts, and the first timer read past the delay window panics.
func TestServePanickingSessionFails(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	bad := hostSession(t, sv, "bad", 17, 30*time.Second, func(s *session) {
		s.cfg.RetxPercentile = 2
	})
	good := createSession(t, ts, `{"scenario":"grid-small","duration":"30s","seed":17}`)

	waitEnd(bad)
	// What was published before the panic, then the done event.
	samples := make(chan int, 1)
	go func() {
		rows, done := readStream(t, ts, "bad")
		if !done {
			rows = -1
		}
		samples <- rows
	}()
	var published int
	select {
	case published = <-samples:
	case <-time.After(10 * time.Second):
		t.Fatal("failed session left its stream open")
	}
	if published < 0 {
		t.Fatal("failed session's stream ended without the done event")
	}
	if published == 0 {
		t.Error("the failing session sampled nothing: it did not fail mid-run")
	}
	var info sessionInfo
	_, b := get(t, ts, "/v1/sessions/bad")
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "failed" || !strings.Contains(info.Error, "index out of range") || info.Now == "0s" {
		t.Errorf("panicking session: state %s at %s, error %q; want failed mid-run on the delay window's index",
			info.State, info.Now, info.Error)
	}
	if code, _ := get(t, ts, "/v1/sessions/bad/report"); code != http.StatusInternalServerError {
		t.Errorf("failed session's report: status %d, want 500", code)
	}

	// The slot came back: the healthy session runs to the batch report.
	waitDone(t, sv, good)
	_, got := get(t, ts, "/v1/sessions/"+good+"/report")
	if want := batchReport(t, "grid-small", 17, 30*time.Second, 1); string(got) != want {
		t.Errorf("healthy session's report differs from batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}
}

func TestServeConcurrentSessions(t *testing.T) {
	sv, ts := startTestServer(t, 3)
	spec := `{"scenario":"grid-small","duration":"25s","seed":11}`
	var wg sync.WaitGroup
	ids := make([]string, 3)
	var mu sync.Mutex
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := createSession(t, ts, spec)
			mu.Lock()
			ids[i] = id
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	var reports [][]byte
	for _, id := range ids {
		waitDone(t, sv, id)
		_, b := get(t, ts, "/v1/sessions/"+id+"/report")
		reports = append(reports, b)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Errorf("identical concurrent sessions disagree: %s vs %s", ids[0], ids[i])
		}
	}
}

func TestServeMetricsEndpoints(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	id := createSession(t, ts, `{"scenario":"grid-small","duration":"20s","seed":5}`)
	waitDone(t, sv, id)

	// Inspect: series schema present.
	var info struct {
		sessionInfo
		Series []string `json:"series"`
	}
	code, b := get(t, ts, "/v1/sessions/"+id)
	if code != http.StatusOK {
		t.Fatalf("inspect: status %d", code)
	}
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != "done" || len(info.Series) == 0 {
		t.Fatalf("inspect: state %s, %d series", info.State, len(info.Series))
	}

	// History: one merged row per elapsed second (21 ticks incl. t=end,
	// sampler starts at one interval in).
	var hist metricsHistory
	_, b = get(t, ts, "/v1/sessions/"+id+"/metrics")
	if err := json.Unmarshal(b, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Series) != len(info.Series) {
		t.Errorf("metrics: %d series, inspect said %d", len(hist.Series), len(info.Series))
	}
	if len(hist.Samples) == 0 {
		t.Fatal("metrics: no samples")
	}
	for _, sm := range hist.Samples {
		if len(sm.Values) != len(hist.Series) {
			t.Fatalf("sample width %d != %d series", len(sm.Values), len(hist.Series))
		}
	}

	// Recording: decodes as FTDC, same shape as the history.
	_, b = get(t, ts, "/v1/sessions/"+id+"/recording")
	recs, err := obs.ReadAll(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recording: %d recordings", len(recs))
	}
	if recs[0].Rows() != len(hist.Samples) {
		t.Errorf("recording rows %d != history samples %d", recs[0].Rows(), len(hist.Samples))
	}
	last := hist.Samples[len(hist.Samples)-1]
	for i, v := range recs[0].Row(recs[0].Rows() - 1) {
		if v != last.Values[i] {
			t.Errorf("recording final row [%d] = %d, history says %d", i, v, last.Values[i])
		}
	}

	// Stream: history replays then the done event closes the stream.
	dataLines, sawDone := readStream(t, ts, id)
	if dataLines != len(hist.Samples) || !sawDone {
		t.Errorf("stream: %d data lines (want %d), done=%v", dataLines, len(hist.Samples), sawDone)
	}

	_ = sv
}

func TestServeBadRequests(t *testing.T) {
	_, ts := startTestServer(t, 1)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"no-such-place","duration":"10s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scenario: status %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/sessions/nope", "/v1/sessions/nope/report", "/v1/sessions/nope/metrics"} {
		code, _ := get(t, ts, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"grid-small","duration":"-3s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad duration: status %d", resp.StatusCode)
	}
}

// TestServeRequestBounds pins the bounds on outside input: a request body
// is read up to maxBodyBytes and no further, a sampling interval below
// minInterval (one barrier step and one retained row per interval) is
// refused with the floor named, and so is a session of more than maxRows
// rows — a 24 h run at 1 ms would reserve ≈16 GB of rows before its first
// event and end the daemon with a fatal out-of-memory error.
func TestServeRequestBounds(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	// Valid JSON either way: only its size is wrong.
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct {
		name, path, body string
		want             int
		mention          string
	}{
		{"interval 1ms", "/v1/sessions", `{"scenario":"grid-small","duration":"2s","interval":"1ms"}`, http.StatusCreated, "s1"},
		{"interval 1ns", "/v1/sessions", `{"scenario":"grid-small","duration":"2s","interval":"1ns"}`, http.StatusBadRequest, minInterval.String()},
		{"interval 0s", "/v1/sessions", `{"scenario":"grid-small","duration":"2s","interval":"0s"}`, http.StatusBadRequest, minInterval.String()},
		{"24h at 1ms", "/v1/sessions", `{"scenario":"grid-city","duration":"24h","interval":"1ms"}`, http.StatusBadRequest, fmt.Sprint(maxRows)},
		{"oversize create", "/v1/sessions", `{"scenario":"grid-small","duration":"2s"` + pad + `}`, http.StatusRequestEntityTooLarge, ""},
		{"oversize pause", "/v1/sessions/s1/pause", `{"at":""` + pad + `}`, http.StatusRequestEntityTooLarge, ""},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want || !strings.Contains(string(b), tc.mention) {
			t.Errorf("%s: status %d %s, want %d mentioning %q", tc.name, resp.StatusCode, b, tc.want, tc.mention)
		}
	}
	waitDone(t, sv, "s1")
}

func TestServeSessionList(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	a := createSession(t, ts, `{"scenario":"grid-small","duration":"15s","seed":1}`)
	b := createSession(t, ts, `{"scenario":"grid-small","duration":"15s","seed":2}`)
	waitDone(t, sv, a)
	waitDone(t, sv, b)
	code, body := get(t, ts, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var infos []sessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != a || infos[1].ID != b {
		t.Fatalf("list = %+v, want [%s %s] in order", infos, a, b)
	}
	for _, in := range infos {
		if in.State != "done" {
			t.Errorf("%s: state %s", in.ID, in.State)
		}
	}
	if fmt.Sprint(infos[0].Seed, infos[1].Seed) != "1 2" {
		t.Errorf("seeds = %d %d", infos[0].Seed, infos[1].Seed)
	}
}

// startDaemon runs the API the way main does — newHTTPServer under serve,
// on a loopback port — and returns its base URL and a function that
// delivers the shutdown signal and reports how serve returned. tune may
// shorten the server's timeouts before it starts.
func startDaemon(t *testing.T, grace time.Duration, tune func(*http.Server)) (*server, string, func() error) {
	t.Helper()
	sv := newServer(1)
	srv := newHTTPServer(sv.handler())
	if tune != nil {
		tune(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan error, 1)
	go func() { returned <- serve(ctx, srv, ln, grace) }()
	var once sync.Once
	shutdown := func() (err error) {
		once.Do(func() {
			cancel()
			select {
			case err = <-returned:
			case <-time.After(30 * time.Second):
				err = errors.New("serve did not return within 30 s of the signal")
			}
		})
		return err
	}
	t.Cleanup(func() { shutdown() })
	return sv, "http://" + ln.Addr().String(), shutdown
}

// TestServeDropsClientHoldingHeadersOpen: a connection that starts a
// request and never finishes its headers is closed by the daemon after
// ReadHeaderTimeout instead of being held for as long as the client likes,
// and the daemon keeps answering everyone else.
func TestServeDropsClientHoldingHeadersOpen(t *testing.T) {
	_, url, _ := startDaemon(t, time.Second, func(srv *http.Server) {
		srv.ReadHeaderTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/sessions HTTP/1.1\r\nHost: vifi\r\nX-Stalled: "); err != nil {
		t.Fatal(err)
	}
	// The daemon closing its end is EOF here; this deadline passing first
	// means it was still waiting for the rest of the headers.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the stalled connection was not dropped: %v", err)
	}
	resp, err := http.Get(url + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after dropping the stalled client: status %d", resp.StatusCode)
	}
}

// TestServeShutdownWithPausedSession: the shutdown signal ends the daemon
// promptly even though a session is parked at a pause barrier — it would
// wait there forever — and a client is streaming that session's metrics,
// which no sample will ever end. The stream is ended by the server, well
// inside the grace period, and serve reports a clean shutdown.
func TestServeShutdownWithPausedSession(t *testing.T) {
	const grace = 20 * time.Second
	sv, url, shutdown := startDaemon(t, grace, nil)
	ts := &httptest.Server{URL: url} // the helpers only read the URL
	// An hour, so the run cannot end before the pause request lands.
	id := createSession(t, ts, hourLong)
	resp, err := http.Post(url+"/v1/sessions/"+id+"/pause", "application/json", strings.NewReader(`{"at":"2s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sv.mu.Lock()
	s := sv.sessions[id]
	sv.mu.Unlock()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if state := s.info().State; state == "paused" {
			break
		} else if state == "done" || state == "failed" || time.Now().After(deadline) {
			t.Fatalf("session never paused: state %s", state)
		}
	}

	stream, err := http.Get(url + "/v1/sessions/" + id + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	streamEnded := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stream.Body) // history, then nothing until the server ends it
		close(streamEnded)
	}()

	began := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(began); took > grace/2 {
		t.Errorf("shutdown took %v: it waited out the grace period instead of ending the stream", took)
	}
	select {
	case <-streamEnded:
	case <-time.After(10 * time.Second):
		t.Error("the metrics stream outlived the daemon")
	}
	if state := s.info().State; state != "paused" {
		t.Errorf("shutdown moved the session to %s", state)
	}
	if _, err := http.Get(url + "/v1/sessions"); err == nil {
		t.Error("the daemon still accepts connections after shutdown")
	}
	// End the parked runner rather than leak it into later tests.
	s.cancel()
	waitEnd(s)
}
