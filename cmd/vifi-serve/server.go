package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// server hosts the session table behind an HTTP API. Session IDs are
// deterministic (s1, s2, ...) so scripted clients can predict them.
type server struct {
	mu       sync.Mutex
	sessions map[string]*session
	order    []string
	nextID   int
	slots    chan struct{}
}

func newServer(maxActive int) *server {
	if maxActive < 1 {
		maxActive = 1
	}
	return &server{
		sessions: map[string]*session{},
		slots:    make(chan struct{}, maxActive),
	}
}

func (sv *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", sv.createSession)
	mux.HandleFunc("GET /v1/sessions", sv.listSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", sv.inspectSession)
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", sv.sessionMetrics)
	mux.HandleFunc("GET /v1/sessions/{id}/metrics/stream", sv.streamMetrics)
	mux.HandleFunc("GET /v1/sessions/{id}/recording", sv.sessionRecording)
	mux.HandleFunc("GET /v1/sessions/{id}/report", sv.sessionReport)
	mux.HandleFunc("POST /v1/sessions/{id}/pause", sv.pauseSession)
	mux.HandleFunc("POST /v1/sessions/{id}/resume", sv.resumeSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", sv.deleteSession)
	return mux
}

// Bounds on what a client may ask of the daemon. A session takes one
// barrier step and retains one sample row per interval, and its samplers
// reserve every row of the run before the first event. So the floor on
// interval bounds its step rate and its memory per simulated second, and
// maxRows bounds duration/interval: the rows, hence the memory, of the
// whole session (1<<18 rows is ≈72 h at the 1 s default interval). An
// allocation past the host's memory is a fatal error, which no recover
// contains: without the row bound one request could end the daemon.
const (
	maxBodyBytes = 64 << 10
	minInterval  = time.Millisecond
	maxRows      = 1 << 18
)

// decodeBody reads a JSON request body of at most maxBodyBytes into v,
// answering 413 or 400 itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "bad JSON body: %v", err)
	return false
}

// createRequest is the POST /v1/sessions body. Durations are Go
// duration strings ("600s", "2m"); interval defaults to 1s (and may not
// be below minInterval, nor duration/interval above maxRows) and shards
// to 1 (serial).
type createRequest struct {
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Duration string `json:"duration"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Interval string `json:"interval"`
}

func (sv *server) createSession(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := scenario.Parse(req.Scenario)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad scenario: %v", err)
		return
	}
	if req.Protocol == "" {
		req.Protocol = "vifi"
	}
	cfg, err := core.ConfigByName(req.Protocol)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dur, err := time.ParseDuration(req.Duration)
	if err != nil || dur <= 0 {
		httpError(w, http.StatusBadRequest, "bad duration %q", req.Duration)
		return
	}
	interval := time.Second
	if req.Interval != "" {
		interval, err = time.ParseDuration(req.Interval)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad interval %q", req.Interval)
			return
		}
		if interval < minInterval {
			httpError(w, http.StatusBadRequest, "interval %q is below the %v floor", req.Interval, minInterval)
			return
		}
	}
	if rows := dur / interval; rows > maxRows {
		httpError(w, http.StatusBadRequest, "duration %v at interval %v is %d sample rows, above the %d-row bound",
			dur, interval, rows, maxRows)
		return
	}
	shards := req.Shards
	if shards < 1 {
		shards = 1
	}

	sv.mu.Lock()
	sv.nextID++
	id := fmt.Sprintf("s%d", sv.nextID)
	s := newSession(id)
	s.specStr = req.Scenario
	s.spec = spec
	s.protocol = req.Protocol
	s.cfg = cfg
	s.seed = req.Seed
	s.shards = shards
	s.duration = dur
	s.interval = interval
	sv.sessions[id] = s
	sv.order = append(sv.order, id)
	sv.mu.Unlock()

	go s.runLoop(sv.slots)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]string{"id": id})
}

// sessionInfo is the wire form of a session's status.
type sessionInfo struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Spec     string `json:"spec"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Lanes    int    `json:"lanes,omitempty"`
	Duration string `json:"duration"`
	Interval string `json:"interval"`
	State    string `json:"state"`
	Now      string `json:"now"`
	End      string `json:"end"`
	Samples  int    `json:"samples"`
	Error    string `json:"error,omitempty"`
}

func (s *session) info() sessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := sessionInfo{
		ID:       s.id,
		Scenario: s.specStr,
		Spec:     s.spec.Key(),
		Protocol: s.protocol,
		Seed:     s.seed,
		Shards:   s.eff,
		Lanes:    s.lanes,
		Duration: s.duration.String(),
		Interval: s.interval.String(),
		State:    s.state,
		Now:      s.now.String(),
		End:      s.end.String(),
		Samples:  s.hist.Rows(),
	}
	if s.eff == 0 {
		info.Shards = s.shards
	}
	if s.err != nil {
		info.Error = s.err.Error()
	}
	return info
}

func (sv *server) listSessions(w http.ResponseWriter, r *http.Request) {
	sv.mu.Lock()
	list := make([]*session, 0, len(sv.order))
	for _, id := range sv.order {
		list = append(list, sv.sessions[id])
	}
	sv.mu.Unlock()
	infos := make([]sessionInfo, len(list))
	for i, s := range list {
		infos[i] = s.info()
	}
	writeJSON(w, infos)
}

func (sv *server) lookup(w http.ResponseWriter, r *http.Request) *session {
	sv.mu.Lock()
	s := sv.sessions[r.PathValue("id")]
	sv.mu.Unlock()
	if s == nil {
		httpError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
	}
	return s
}

func (sv *server) inspectSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	info := s.info()
	hist, _, _ := s.view()
	series := make([]string, len(hist.Series))
	for i, d := range hist.Series {
		series[i] = d.Name
	}
	writeJSON(w, struct {
		sessionInfo
		Series []string `json:"series"`
	}{info, series})
}

// metricsHistory is the GET .../metrics payload: the full merged
// sample history so far.
type metricsHistory struct {
	Series  []obs.SeriesDef `json:"series"`
	Samples []liveSample    `json:"samples"`
}

// sample is row i of rec in its wire form; Values is a view of the row.
func sample(rec *obs.Recording, i int) liveSample {
	return liveSample{At: rec.At(i), Values: rec.Row(i)}
}

func (sv *server) sessionMetrics(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	hist, _, _ := s.view()
	h := metricsHistory{Series: hist.Series}
	for i := range hist.Rows() {
		h.Samples = append(h.Samples, sample(&hist, i))
	}
	writeJSON(w, h)
}

// streamMetrics serves the live sample feed as server-sent events. It
// walks the history by row index: it sends every row published so far,
// then waits for the next barrier (or the client to go) and sends what
// that added, so a slow client falls behind but loses nothing. Once the
// session has ended and its last row is out, a done event closes the
// stream.
func (sv *server) streamMetrics(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	for next := 0; ; {
		hist, grew, ended := s.view()
		for ; next < hist.Rows(); next++ {
			b, _ := json.Marshal(sample(&hist, next))
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
		}
		if ended {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-grew:
		case <-r.Context().Done():
			return
		}
	}
}

func (sv *server) sessionRecording(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	rec := s.liveRecording()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteJSONAll(w, []*obs.Recording{rec}); err != nil {
			httpError(w, http.StatusInternalServerError, "encode: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := obs.WriteAll(w, []*obs.Recording{rec}); err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
	}
}

// sessionReport returns the final text report, byte-identical to the
// batch vifi-sim output for the same spec/protocol/seed/duration.
func (sv *server) sessionReport(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	s.mu.Lock()
	state := s.state
	report := s.report
	err := s.err
	s.mu.Unlock()
	switch state {
	case "failed":
		httpError(w, http.StatusInternalServerError, "session failed: %v", err)
	case "cancelled":
		httpError(w, http.StatusGone, "session %s was cancelled", s.id)
	case "done":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(report)
	default:
		httpError(w, http.StatusConflict, "session %s still %s", s.id, state)
	}
}

// pauseRequest optionally names a sim-time barrier; without a body (or
// with at="") the session pauses at the next step boundary.
type pauseRequest struct {
	At string `json:"at"`
}

func (sv *server) pauseSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	var req pauseRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	var at time.Duration
	if req.At != "" {
		var err error
		at, err = time.ParseDuration(req.At)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad at %q", req.At)
			return
		}
	}
	if err := s.pause(at); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, s.info())
}

func (sv *server) resumeSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	s.resume()
	writeJSON(w, s.info())
}

// deleteSession stops a session that is still going — 202, the state turns
// cancelled at its next barrier, its slot is released and its streams end —
// and forgets one that has ended — 204, after which its id is unknown and
// its report and recording can be collected.
func (sv *server) deleteSession(w http.ResponseWriter, r *http.Request) {
	s := sv.lookup(w, r)
	if s == nil {
		return
	}
	if s.cancel() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(s.info())
		return
	}
	sv.mu.Lock()
	delete(sv.sessions, s.id)
	sv.order = slices.DeleteFunc(sv.order, func(id string) bool { return id == s.id })
	sv.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
