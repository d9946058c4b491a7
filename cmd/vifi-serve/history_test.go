package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// stalledClient is a stream client that reads nothing until open is
// closed: every Write blocks until then. writing is closed at the first
// Write, once the handler has its first row to send.
type stalledClient struct {
	header  http.Header
	once    sync.Once
	writing chan struct{}
	open    chan struct{}
	got     bytes.Buffer
}

func (c *stalledClient) Header() http.Header { return c.header }
func (c *stalledClient) WriteHeader(int)     {}
func (c *stalledClient) Flush()              {}

func (c *stalledClient) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	<-c.open
	return c.got.Write(b)
}

// TestServeStreamKeepsEveryRow: a client that opens the metrics stream and
// then reads nothing until the session has ended still receives every row
// of the run, followed by the done event. The run does not wait for it.
func TestServeStreamKeepsEveryRow(t *testing.T) {
	sv, _ := startTestServer(t, 1)
	// Parked at 1 s, so the stream is open before most rows exist.
	s := hostSession(t, sv, "late", 3, 20*time.Second, func(s *session) {
		s.interval = 5 * time.Millisecond
		if err := s.pause(time.Second); err != nil {
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

	c := &stalledClient{header: http.Header{}, writing: make(chan struct{}), open: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		sv.handler().ServeHTTP(c, httptest.NewRequest("GET", "/v1/sessions/late/metrics/stream", nil))
	}()
	<-c.writing
	s.resume()
	waitDone(t, sv, s.id)
	close(c.open)
	<-served

	out := c.got.String()
	rows := strings.Count(out, "data: {\"at_ns\"")
	if want := s.info().Samples; want != 4200 || rows != want {
		t.Errorf("the stalled client got %d rows of the session's %d (want 4200)", rows, want)
	}
	if !strings.HasSuffix(out, "event: done\ndata: {}\n\n") {
		t.Errorf("the stream did not end with the done event: ...%q", out[max(0, len(out)-80):])
	}
}

// allocBytes returns the bytes f allocates per call.
func allocBytes(f func()) float64 {
	const n = 20
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / n
}

// discardClient is a ResponseWriter that drops the body.
type discardClient struct{ header http.Header }

func (c discardClient) Header() http.Header         { return c.header }
func (c discardClient) WriteHeader(int)             {}
func (c discardClient) Write(b []byte) (int, error) { return len(b), nil }

// TestServeRecordingAllocatesNoRows: a download shares the session's
// history and copies none of it, so liveRecording and a whole /recording
// request allocate no more at 10 000 rows than at 100.
func TestServeRecordingAllocatesNoRows(t *testing.T) {
	spec, err := scenario.Parse("grid-small")
	if err != nil {
		t.Fatal(err)
	}
	series := make([]obs.SeriesDef, 32)
	for j := range series {
		series[j] = obs.SeriesDef{Name: fmt.Sprintf("s%d", j)}
	}
	sv := newServer(1)
	h := sv.handler()
	measure := func(rows int) (live, download float64) {
		s := newSession(fmt.Sprintf("r%d", rows))
		s.spec, s.interval = spec, time.Second
		rec := obs.NewRecording(nil, s.interval, s.interval, series)
		row := make([]int64, len(series))
		for i := range rows {
			row[0], row[1] = int64(i), int64(i*i)
			rec.Append(row...)
		}
		s.publish(rec)
		sv.sessions[s.id] = s
		w := discardClient{header: http.Header{}}
		live = allocBytes(func() { s.liveRecording() })
		download = allocBytes(func() {
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/sessions/"+s.id+"/recording", nil))
		})
		return live, download
	}
	const small, big = 100, 10_000
	smallLive, smallDownload := measure(small)
	bigLive, bigDownload := measure(big)
	// A copy of any part of a row would cost at least a byte per row; the
	// margin absorbs what other goroutines allocate meanwhile.
	const margin = big - small
	if bigLive > smallLive+margin {
		t.Errorf("liveRecording allocates %.0f B at %d rows, %.0f B at %d; want no row copy", bigLive, big, smallLive, small)
	}
	if bigDownload > smallDownload+margin {
		t.Errorf("a /recording request allocates %.0f B at %d rows, %.0f B at %d; want no row copy", bigDownload, big, smallDownload, small)
	}
}

// TestServeReadersDuringRuns polls every history endpoint — the metrics,
// both recording formats, the session and the stream — while a four-kernel
// district session and a serial session run, and checks that every
// download taken mid-run is a prefix of the finished history. Under -race it
// holds the snapshot's promise: rows below a barrier are never written
// again, whichever way the run grows its recording.
func TestServeReadersDuringRuns(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	ids := []string{
		createSession(t, ts, `{"scenario":"metro-districts","duration":"30s","seed":7,"shards":4,"interval":"100ms"}`),
		createSession(t, ts, `{"scenario":"grid-small","duration":"40s","seed":3,"interval":"10ms"}`),
	}
	var wg sync.WaitGroup
	mid := make([]*obs.Recording, len(ids))
	streamed := make([]int, len(ids))
	for k, id := range ids {
		sv.mu.Lock()
		s := sv.sessions[id]
		sv.mu.Unlock()
		for _, path := range []string{"", "/metrics", "/recording", "/recording?format=json"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for running := true; running; {
					_, _, ended := s.view()
					running = !ended
					resp, err := http.Get(ts.URL + "/v1/sessions/" + id + path)
					if err != nil {
						t.Error(err)
						return
					}
					var body bytes.Buffer
					body.ReadFrom(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s%s: status %d", id, path, resp.StatusCode)
						return
					}
					if path == "/recording" && running {
						recs, err := obs.ReadAll(&body)
						if err != nil || len(recs) != 1 {
							t.Errorf("mid-run recording of %s: %d recordings, %v", id, len(recs), err)
							return
						}
						mid[k] = recs[0]
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, done := readStream(t, ts, id)
			if !done {
				t.Errorf("the stream of %s ended without the done event", id)
			}
			streamed[k] = rows
		}()
	}
	wg.Wait()

	for k, id := range ids {
		waitDone(t, sv, id)
		end := recording(t, ts, id)
		if end.Rows() == 0 || streamed[k] != end.Rows() {
			t.Errorf("%s: streamed %d rows, recorded %d", id, streamed[k], end.Rows())
		}
		if mid[k] == nil || mid[k].Rows() > end.Rows() {
			t.Fatalf("%s: no recording downloaded mid-run, or one longer than the finished one", id)
		}
		for i := range mid[k].Rows() {
			if !slices.Equal(mid[k].Row(i), end.Row(i)) {
				t.Fatalf("%s: row %d of a mid-run download differs from the finished history", id, i)
			}
		}
	}
}
