package obs

import (
	"fmt"
	"time"
)

// Recording is one run's sampled series: a fixed schema, a fixed cadence
// and a row-major backing array (row i holds every series' value at time
// Start + i·Interval). Recordings come out of a Sampler or a decoder and
// are plain data — safe to share once sampling has stopped.
type Recording struct {
	// Meta carries the run's identity (spec key, seed, shard count…) as
	// opaque key/value pairs; codecs persist it sorted by key.
	Meta map[string]string

	// Interval is the sampling cadence; Start is the simulated time of
	// row 0 (the first tick, normally == Interval).
	Interval time.Duration
	Start    time.Duration

	// Series is the schema, in column order.
	Series []SeriesDef

	// data is row-major: len == Rows()·len(Series).
	data []int64
}

// NewRecording builds an empty recording with the given schema; decoders
// and tests use it, samplers build their own.
func NewRecording(meta map[string]string, interval, start time.Duration, series []SeriesDef) *Recording {
	return &Recording{Meta: meta, Interval: interval, Start: start, Series: series}
}

// Append adds one row (one value per series, in schema order).
func (r *Recording) Append(row ...int64) {
	if len(row) != len(r.Series) {
		panic(fmt.Sprintf("obs: Append row width %d, schema width %d", len(row), len(r.Series)))
	}
	r.data = append(r.data, row...)
}

// Rows returns the number of samples taken.
func (r *Recording) Rows() int {
	if len(r.Series) == 0 {
		return 0
	}
	return len(r.data) / len(r.Series)
}

// At returns the simulated time of row i.
func (r *Recording) At(i int) time.Duration {
	return r.Start + time.Duration(i)*r.Interval
}

// Snapshot returns a copy of the recording as it stands, sharing its rows
// (and its Meta and Series, which are read-only): its data is capped at
// its length, so an Append on the snapshot reallocates and never writes
// the live array. A row once taken is never written again, so a snapshot
// made between sampler advances may be read from any goroutine while the
// live recording keeps growing.
func (r *Recording) Snapshot() Recording {
	c := *r
	c.data = c.data[:len(c.data):len(c.data)]
	return c
}

// Row returns row i as a view into the backing array; copy to retain
// across further sampling.
func (r *Recording) Row(i int) []int64 {
	n := len(r.Series)
	return r.data[i*n : (i+1)*n]
}

// SeriesIndex returns the column of the named series, -1 if absent.
func (r *Recording) SeriesIndex(name string) int {
	for i, d := range r.Series {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Column copies out one series' full history; nil if the name is absent.
func (r *Recording) Column(name string) []int64 {
	j := r.SeriesIndex(name)
	if j < 0 {
		return nil
	}
	n := len(r.Series)
	out := make([]int64, r.Rows())
	for i := range out {
		out[i] = r.data[i*n+j]
	}
	return out
}

// Equal reports deep value equality (schema, cadence, meta and data) —
// the determinism tests' comparison.
func (r *Recording) Equal(o *Recording) bool {
	if r.Interval != o.Interval || r.Start != o.Start ||
		len(r.Series) != len(o.Series) || len(r.data) != len(o.data) ||
		len(r.Meta) != len(o.Meta) {
		return false
	}
	for i := range r.Series {
		if r.Series[i] != o.Series[i] {
			return false
		}
	}
	for i := range r.data {
		if r.data[i] != o.data[i] {
			return false
		}
	}
	for k, v := range r.Meta {
		if ov, ok := o.Meta[k]; !ok || ov != v {
			return false
		}
	}
	return true
}
