// Command vifi-serve is a long-lived daemon hosting scenario sessions
// behind an HTTP API. Each session runs one fleet scenario (the same
// execution path as vifi-sim -scenario) on its own goroutine, sampled
// by the FTDC-style metrics layer in internal/obs, and can be paused
// and resumed at sim-time barriers — one sampling interval apart, for a
// serial and a sharded session alike — without perturbing the result: the
// final report is byte-identical to the batch CLI's. A session whose
// simulation panics ends failed with the panic as its error; the daemon
// and its other sessions carry on.
//
// API (all JSON unless noted):
//
//	POST /v1/sessions                  {"scenario":"grid-metro","protocol":"vifi",
//	                                    "duration":"600s","seed":17,"shards":4,
//	                                    "interval":"1s"}         → {"id":"s1"}
//	GET  /v1/sessions                  list all sessions
//	GET  /v1/sessions/{id}             inspect one (state, sim clock, series)
//	GET  /v1/sessions/{id}/metrics     merged sample history
//	GET  /v1/sessions/{id}/metrics/stream   live samples as SSE
//	GET  /v1/sessions/{id}/recording   FTDC binary (?format=json for JSON)
//	GET  /v1/sessions/{id}/report      final text report (409 until done, 500 if failed)
//	POST /v1/sessions/{id}/pause       optional {"at":"30s"} sim-time barrier
//	POST /v1/sessions/{id}/resume
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8461", "listen address")
		sessions = flag.Int("sessions", 2, "max concurrently advancing sessions")
	)
	flag.Parse()

	sv := newServer(*sessions)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vifi-serve:", err)
		os.Exit(1)
	}
	fmt.Printf("vifi-serve: listening on http://%s\n", ln.Addr())
	if err := http.Serve(ln, sv.handler()); err != nil {
		fmt.Fprintln(os.Stderr, "vifi-serve:", err)
		os.Exit(1)
	}
}
