package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeSurvivesAbuse runs one daemon through what its users can do to
// it at once: a pause/resume storm from several clients on one session, a
// consumer that reads that session's metrics stream slowly, a DELETE that
// lands while another session is between barriers, and a session whose
// simulation panics beside them. The stormed session still ends with the
// batch report, the deleted one ends cancelled, the panicking one failed,
// and once the daemon has shut down every goroutine it started is gone.
func TestServeSurvivesAbuse(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sv, url, shutdown := startDaemon(t, 5*time.Second, nil)
	ts := &httptest.Server{URL: url} // the helpers only read the URL
	post := func(path, body string) int {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Long enough that only the DELETE ends it.
	doomed := createSession(t, ts, `{"scenario":"grid-small","duration":"36000s","seed":3}`)
	waitState(t, ts, doomed, "running")

	bad := hostSession(t, sv, "bad", 17, 30*time.Second, func(s *session) {
		s.cfg.RetxPercentile = 2 // panics mid-run: the API cannot produce it
	})

	healthy := createSession(t, ts, `{"scenario":"grid-small","duration":"30s","seed":17}`)

	// The slow consumer: one event at a time, well behind the run. (Its
	// response headers arrive with the first sample, once the session has
	// had its turn at the slot.)
	streamEnd := make(chan string, 1)
	go func() {
		last := ""
		defer func() { streamEnd <- last }()
		stream, err := http.Get(url + "/v1/sessions/" + healthy + "/metrics/stream")
		if err != nil {
			t.Error(err)
			return
		}
		defer stream.Body.Close()
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event:") {
				last = line
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// DELETE the running session while the others queue for its slot.
	if code := del(t, ts, doomed); code != http.StatusAccepted {
		t.Errorf("DELETE of the running session: status %d, want 202", code)
	}

	// The storm: pauses now and at sim-time barriers, resumes, from four
	// clients at once, until the session has ended (a pause answers 409).
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := ""
				if (c+i)%3 == 0 {
					body = fmt.Sprintf(`{"at":"%ds"}`, 1+(c*7+i)%29)
				}
				switch code := post("/v1/sessions/"+healthy+"/pause", body); code {
				case http.StatusConflict:
					return
				case http.StatusOK:
				default:
					t.Errorf("pause: status %d", code)
				}
				time.Sleep(time.Duration(c+1) * time.Millisecond)
				if code := post("/v1/sessions/"+healthy+"/resume", ""); code != http.StatusOK {
					t.Errorf("resume: status %d", code)
				}
			}
		}(c)
	}
	wg.Wait()
	post("/v1/sessions/"+healthy+"/resume", "") // the storm may have ended on a pause

	if state := waitEnded(t, sv, doomed); state != "cancelled" {
		t.Errorf("deleted session ended %s, want cancelled", state)
	}
	if state := waitEnded(t, sv, bad.id); state != "failed" {
		t.Errorf("panicking session ended %s, want failed", state)
	}
	waitDone(t, sv, healthy)
	_, got := get(t, ts, "/v1/sessions/"+healthy+"/report")
	if want := batchReport(t, "grid-small", 17, 30*time.Second, 1); string(got) != want {
		t.Errorf("stormed session's report differs from batch:\n--- serve ---\n%s--- batch ---\n%s", got, want)
	}
	select {
	case last := <-streamEnd:
		if last != "event: done" {
			t.Errorf("the slow stream ended after %q, want a done event", last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the slow stream never ended")
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before the daemon started:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
