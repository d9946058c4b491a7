// Command vifi-serve is a long-lived daemon hosting scenario sessions
// behind an HTTP API. Each session runs one fleet scenario (the same
// execution path as vifi-sim -scenario) on its own goroutine, sampled
// by the FTDC-style metrics layer in internal/obs, and can be paused
// and resumed at sim-time barriers — one sampling interval apart, for a
// serial and a sharded session alike — without perturbing the result: the
// final report is byte-identical to the batch CLI's. A session whose
// simulation panics ends failed with the panic as its error; the daemon
// and its other sessions carry on. A session holds its report and recording
// until a client deletes it. SIGINT or SIGTERM shuts the daemon down:
// it stops accepting, ends the live streams and exits once requests in
// flight have been answered; sessions are not waited for.
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
//	GET  /v1/sessions/{id}/report      final text report (409 until done, 500 if failed,
//	                                   410 if cancelled)
//	POST /v1/sessions/{id}/pause       optional {"at":"30s"} sim-time barrier
//	POST /v1/sessions/{id}/resume
//	DELETE /v1/sessions/{id}           a running, paused or queued session: 202, it ends
//	                                   cancelled at its next barrier (slot released, streams
//	                                   ended); one that has ended: 204, it is forgotten
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// What the daemon grants a connection. A client gets readHeaderTimeout to
// finish its request line and headers (bodies are capped at maxBodyBytes
// and JSON, so they arrive with them or not at all) and a keep-alive
// connection may sit idle for idleTimeout. There is no write timeout: a
// metrics stream lasts as long as its session. shutdownGrace is how long
// Shutdown waits for requests in flight before connections are closed
// under them.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 5 * time.Second
)

// newHTTPServer wraps the API in an http.Server with the connection
// timeouts above. Every request's context descends from one the server
// cancels when Shutdown begins, which is what ends the SSE streams —
// Shutdown waits for handlers and a stream would otherwise outlive it.
func newHTTPServer(h http.Handler) *http.Server {
	base, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
	srv.RegisterOnShutdown(cancel)
	return srv
}

// serve runs srv on ln until ctx is done, then shuts it down: no new
// connections, streams ended, requests in flight given grace to finish.
// It returns nil after a clean shutdown and the listener's error if
// serving stopped by itself. Sessions run on their own goroutines and are
// not waited for — a paused one would wait forever.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()
	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	wait, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(wait); err != nil {
		srv.Close() // a handler outlived the grace: its connection is dropped
	}
	<-failed // Serve has returned http.ErrServerClosed
	return nil
}

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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, newHTTPServer(sv.handler()), ln, shutdownGrace); err != nil {
		fmt.Fprintln(os.Stderr, "vifi-serve:", err)
		os.Exit(1)
	}
}
