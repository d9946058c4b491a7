package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func del(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitState polls a session until it reports one of the wanted states.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...string) sessionInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info sessionInfo
		code, b := get(t, ts, "/v1/sessions/"+id)
		if code != http.StatusOK {
			t.Fatalf("session %s: status %d: %s", id, code, b)
		}
		if err := json.Unmarshal(b, &info); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if info.State == w {
				return info
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s is %s, waited for %v", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitEnded blocks until the session's runner has put it in a terminal
// state and returns that state.
func waitEnded(t *testing.T, sv *server, id string) string {
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
	return s.state
}

const hourLong = `{"scenario":"grid-small","duration":"3600s","seed":3}`

// TestServeDeleteRunning: DELETE stops a running session at its next
// barrier — state cancelled, event streams ended, the one slot free for the
// next session — and a session still queued for that slot without running
// it at all. A second DELETE forgets each.
func TestServeDeleteRunning(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	running := createSession(t, ts, hourLong)
	waitState(t, ts, running, "running")
	queued := createSession(t, ts, hourLong)

	streamEnded := make(chan string, 1)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + running + "/metrics/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		last := ""
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event:") {
				last = line
			}
		}
		streamEnded <- last
	}()

	if code := del(t, ts, queued); code != http.StatusAccepted {
		t.Fatalf("DELETE of a queued session: status %d, want 202", code)
	}
	if state := waitEnded(t, sv, queued); state != "cancelled" {
		t.Fatalf("queued session ended %s, want cancelled", state)
	}
	if info := waitState(t, ts, running, "running"); info.State != "running" {
		t.Fatalf("cancelling the queued session disturbed the running one: %+v", info)
	}

	if code := del(t, ts, running); code != http.StatusAccepted {
		t.Fatalf("DELETE of a running session: status %d, want 202", code)
	}
	if state := waitEnded(t, sv, running); state != "cancelled" {
		t.Fatalf("running session ended %s, want cancelled", state)
	}
	select {
	case last := <-streamEnded:
		if last != "event: done" {
			t.Errorf("the event stream ended after %q, want a done event", last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the event stream of a cancelled session never ended")
	}
	if code, _ := get(t, ts, "/v1/sessions/"+running+"/report"); code != http.StatusGone {
		t.Errorf("report of a cancelled session: status %d, want 410", code)
	}
	if code, _ := get(t, ts, "/v1/sessions/"+running+"/recording"); code != http.StatusOK {
		t.Errorf("recording of a cancelled session: status %d, want what it sampled", code)
	}

	// The slot came back: with one slot, the next session can only finish
	// if the cancelled one let go of it.
	next := createSession(t, ts, `{"scenario":"grid-small","duration":"5s","seed":3}`)
	waitDone(t, sv, next)

	for _, id := range []string{running, queued} {
		if code := del(t, ts, id); code != http.StatusNoContent {
			t.Errorf("DELETE of cancelled session %s: status %d, want 204", id, code)
		}
		if code, _ := get(t, ts, "/v1/sessions/"+id); code != http.StatusNotFound {
			t.Errorf("GET of removed session %s: status %d, want 404", id, code)
		}
	}
}

// TestServeDeletePaused: a paused session holds no slot and waits on its
// condition variable; DELETE wakes it and it ends cancelled where it stood.
func TestServeDeletePaused(t *testing.T) {
	sv, ts := startTestServer(t, 1)
	id := createSession(t, ts, hourLong)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/pause", "application/json", strings.NewReader(`{"at":"3s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	at := waitState(t, ts, id, "paused").Now
	if code := del(t, ts, id); code != http.StatusAccepted {
		t.Fatalf("DELETE of a paused session: status %d, want 202", code)
	}
	if state := waitEnded(t, sv, id); state != "cancelled" {
		t.Fatalf("paused session ended %s, want cancelled", state)
	}
	if info := waitState(t, ts, id, "cancelled"); info.Now != at {
		t.Errorf("a session cancelled while paused at %s moved on to %s", at, info.Now)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions/"+id+"/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("pausing a cancelled session: status %d, want 409", resp.StatusCode)
	}
	other := createSession(t, ts, `{"scenario":"grid-small","duration":"5s","seed":3}`)
	waitDone(t, sv, other)
}

// TestServeDeleteDone: DELETE of a finished session removes it from the
// table — its id, report and recording answer 404 and the list no longer
// shows it — and leaves its neighbours alone.
func TestServeDeleteDone(t *testing.T) {
	sv, ts := startTestServer(t, 2)
	spec := `{"scenario":"grid-small","duration":"5s","seed":3}`
	gone, kept := createSession(t, ts, spec), createSession(t, ts, spec)
	waitDone(t, sv, gone)
	waitDone(t, sv, kept)
	if code, _ := get(t, ts, "/v1/sessions/"+gone+"/report"); code != http.StatusOK {
		t.Fatalf("report before DELETE: status %d", code)
	}
	if code := del(t, ts, gone); code != http.StatusNoContent {
		t.Fatalf("DELETE of a finished session: status %d, want 204", code)
	}
	for _, path := range []string{"", "/report", "/recording", "/metrics"} {
		if code, _ := get(t, ts, "/v1/sessions/"+gone+path); code != http.StatusNotFound {
			t.Errorf("GET %s%s after DELETE: status %d, want 404", gone, path, code)
		}
	}
	if code := del(t, ts, gone); code != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", code)
	}
	var list []sessionInfo
	_, b := get(t, ts, "/v1/sessions")
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != kept {
		t.Errorf("session list after DELETE: %+v, want only %s", list, kept)
	}
	if code, _ := get(t, ts, "/v1/sessions/"+kept+"/report"); code != http.StatusOK {
		t.Errorf("the neighbour's report: status %d", code)
	}
}
