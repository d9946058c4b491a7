package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS every child (and the probing parent) is
// pinned to: the sizing host has two cores, and a number that floats
// with the host's core count cannot be compared across hosts.
const childProcs = 2

// fingerprint identifies the host and the tree a result came from.
type fingerprint struct {
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Kernel     string    `json:"kernel"`
	Date       string    `json:"date"`
	CalibMs    []float64 `json:"calib_ms"`
}

func newFingerprint() *fingerprint {
	return &fingerprint{
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childProcs,
		Kernel:     kernelRelease(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads HEAD without running git; a checkout that is not a
// repository (the driver's) reads "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// calibrate runs a fixed pure-Go loop — RNG draws, math.Exp and a 4-ary
// sift, the simulator's own instruction mix — and returns its wall time
// in milliseconds. The loop never changes with the simulator, so what
// moves its reading is the host.
func calibrate() float64 {
	const n = 1 << 16
	t0 := time.Now()
	heap := make([]float64, n)
	x := uint64(0x9E3779B97F4A7C15)
	var acc float64
	for round := 0; round < 48; round++ {
		for i := range heap {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			heap[i] = math.Exp(-float64(x>>11) / (1 << 53))
		}
		for i := n/4 - 1; i >= 0; i-- {
			siftDown4(heap, i)
		}
		acc += heap[0]
	}
	calibSink = acc
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var calibSink float64

// calibRefMs is the calibration reading the times are normalised to: what
// the sizing host reads on an ordinary day (35 ms at its best, 70 ms and
// more at its worst).
const calibRefMs = 50

// hostFactor is how slow the host was while the readings were taken,
// against calibRefMs. It is their (trimmed) mean, not their median: the
// readings jump between two levels as the neighbouring hardware thread
// wakes and sleeps, and an op, which lasts twenty readings, feels the
// share of time spent at each. Without readings the factor is 1.
func hostFactor(calibMs []float64) float64 {
	if len(calibMs) == 0 {
		return 1
	}
	return trimmedMean(calibMs) / calibRefMs
}

func siftDown4(h []float64, i int) {
	for {
		first := 4*i + 1
		if first >= len(h) {
			return
		}
		m := first
		for c := first + 1; c < min(first+4, len(h)); c++ {
			if h[c] < h[m] {
				m = c
			}
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
