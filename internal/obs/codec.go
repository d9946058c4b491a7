package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"time"
)

// Binary recording stream, FTDC-shaped. Layout (all integers are
// unsigned varints unless noted):
//
//	magic "VIFIFTDC" (8 bytes) · version · recording count
//	per recording:
//	  meta count · (key, value) string pairs, sorted by key
//	  interval ns · start ns
//	  series count · per series: kind byte, name string
//	  row count
//	  column chunks: rows are cut into chunks of up to chunkRows; within
//	  a chunk each series writes its first value (zigzag varint) followed
//	  by the deltas of the remaining rows, zigzag-varint encoded with
//	  zero run-length compression: a zero delta is written as the token 0
//	  followed by the run length it stands for.
//
// Strings are length-prefixed UTF-8. The format is self-delimiting, so a
// stream carries any number of recordings back to back.
const (
	codecMagic   = "VIFIFTDC"
	codecVersion = 1

	// chunkRows bounds a chunk so a decoder can cap per-chunk state and a
	// flat-lining counter compresses to a token or two per chunk.
	chunkRows = 256
)

// zigzag maps signed to unsigned so small negatives stay short varints.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

type countWriter struct {
	w *bufio.Writer
}

// uvarint appends v to the writer's free buffer, so encoding a value
// allocates nothing.
func (cw countWriter) uvarint(v uint64) error {
	_, err := cw.w.Write(binary.AppendUvarint(cw.w.AvailableBuffer(), v))
	return err
}

func (cw countWriter) varint(v int64) error { return cw.uvarint(zigzag(v)) }

func (cw countWriter) str(s string) error {
	if err := cw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := cw.w.WriteString(s)
	return err
}

// WriteAll encodes a stream of recordings to w in the binary format.
func WriteAll(w io.Writer, recs []*Recording) error {
	bw := bufio.NewWriter(w)
	cw := countWriter{w: bw}
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if err := cw.uvarint(codecVersion); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		if err := writeRecording(cw, r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile creates path and encodes recs into it in the binary format
// (read back with vifi-metrics or ReadAll). The first error wins: a failed
// encode still closes the file, and a failed close fails the write.
func WriteFile(path string, recs []*Recording) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteAll(f, recs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeRecording(cw countWriter, r *Recording) error {
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := cw.uvarint(uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := cw.str(k); err != nil {
			return err
		}
		if err := cw.str(r.Meta[k]); err != nil {
			return err
		}
	}
	if err := cw.uvarint(uint64(r.Interval)); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(r.Start)); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(len(r.Series))); err != nil {
		return err
	}
	for _, d := range r.Series {
		if err := cw.w.WriteByte(byte(d.Kind)); err != nil {
			return err
		}
		if err := cw.str(d.Name); err != nil {
			return err
		}
	}
	rows := r.Rows()
	if err := cw.uvarint(uint64(rows)); err != nil {
		return err
	}
	ncol := len(r.Series)
	for a := 0; a < rows; a += chunkRows {
		b := a + chunkRows
		if b > rows {
			b = rows
		}
		for j := 0; j < ncol; j++ {
			if err := cw.varint(r.data[a*ncol+j]); err != nil {
				return err
			}
			if err := writeDeltas(cw, r.data, ncol, j, a, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeDeltas emits rows (a, b) of column j as zigzag deltas with
// zero-RLE: a zero token is followed by the length of the zero run it
// opens, and the run's remaining deltas are skipped.
func writeDeltas(cw countWriter, data []int64, ncol, j, a, b int) error {
	for i := a + 1; i < b; i++ {
		d := data[i*ncol+j] - data[(i-1)*ncol+j]
		if d != 0 {
			if err := cw.varint(d); err != nil {
				return err
			}
			continue
		}
		run := 1
		for i+run < b && data[(i+run)*ncol+j] == data[(i+run-1)*ncol+j] {
			run++
		}
		if err := cw.varint(0); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(run)); err != nil {
			return err
		}
		i += run - 1
	}
	return nil
}

type countReader struct {
	r *bufio.Reader
}

func (cr countReader) uvarint() (uint64, error) { return binary.ReadUvarint(cr.r) }

func (cr countReader) varint() (int64, error) {
	u, err := cr.uvarint()
	return unzigzag(u), err
}

func (cr countReader) str(limit uint64) (string, error) {
	n, err := cr.uvarint()
	if err != nil {
		return "", err
	}
	if n > limit {
		return "", fmt.Errorf("obs: string length %d exceeds limit %d", n, limit)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// ReadAll decodes a binary recording stream produced by WriteAll.
func ReadAll(r io.Reader) ([]*Recording, error) {
	cr := countReader{r: bufio.NewReader(r)}
	head := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(cr.r, head); err != nil {
		return nil, fmt.Errorf("obs: reading magic: %w", err)
	}
	if string(head) != codecMagic {
		return nil, fmt.Errorf("obs: bad magic %q (not a recording stream)", head)
	}
	ver, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("obs: unsupported stream version %d (have %d)", ver, codecVersion)
	}
	count, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	recs := make([]*Recording, 0, count)
	for i := uint64(0); i < count; i++ {
		rec, err := readRecording(cr)
		if err != nil {
			return nil, fmt.Errorf("obs: recording %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func readRecording(cr countReader) (*Recording, error) {
	const strLimit = 1 << 20
	nmeta, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	var meta map[string]string
	if nmeta > 0 {
		meta = make(map[string]string, nmeta)
	}
	for i := uint64(0); i < nmeta; i++ {
		k, err := cr.str(strLimit)
		if err != nil {
			return nil, err
		}
		v, err := cr.str(strLimit)
		if err != nil {
			return nil, err
		}
		meta[k] = v
	}
	interval, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	start, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	ncol, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	series := make([]SeriesDef, ncol)
	for j := range series {
		kind, err := cr.r.ReadByte()
		if err != nil {
			return nil, err
		}
		name, err := cr.str(strLimit)
		if err != nil {
			return nil, err
		}
		series[j] = SeriesDef{Name: name, Kind: Kind(kind)}
	}
	rows, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if hi, _ := bits.Mul64(rows, ncol); hi != 0 || rows*ncol > 1<<32 {
		return nil, fmt.Errorf("obs: implausible recording size (%d rows × %d series)", rows, ncol)
	}
	rec := &Recording{
		Meta:     meta,
		Interval: time.Duration(interval),
		Start:    time.Duration(start),
		Series:   series,
		data:     make([]int64, rows*ncol),
	}
	n := int(ncol)
	for a := 0; a < int(rows); a += chunkRows {
		b := a + chunkRows
		if b > int(rows) {
			b = int(rows)
		}
		for j := 0; j < n; j++ {
			first, err := cr.varint()
			if err != nil {
				return nil, err
			}
			rec.data[a*n+j] = first
			prev := first
			for i := a + 1; i < b; {
				d, err := cr.varint()
				if err != nil {
					return nil, err
				}
				if d != 0 {
					prev += d
					rec.data[i*n+j] = prev
					i++
					continue
				}
				run, err := cr.uvarint()
				if err != nil {
					return nil, err
				}
				if run == 0 || int(run) > b-i {
					return nil, fmt.Errorf("obs: zero run %d overflows chunk (%d rows left)", run, b-i)
				}
				for z := uint64(0); z < run; z++ {
					rec.data[i*n+j] = prev
					i++
				}
			}
		}
	}
	return rec, nil
}

// --- JSON codec ------------------------------------------------------------

// jsonSeries and jsonRecording mirror the binary layout in a
// self-describing form for debugging and the serve API.
type jsonSeries struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type jsonRecording struct {
	Version    int               `json:"version"`
	Meta       map[string]string `json:"meta,omitempty"`
	IntervalNs int64             `json:"interval_ns"`
	StartNs    int64             `json:"start_ns"`
	Series     []jsonSeries      `json:"series"`
	Samples    [][]int64         `json:"samples"`
}

func toJSONRecording(r *Recording) jsonRecording {
	jr := jsonRecording{
		Version:    codecVersion,
		Meta:       r.Meta,
		IntervalNs: int64(r.Interval),
		StartNs:    int64(r.Start),
		Series:     make([]jsonSeries, len(r.Series)),
		Samples:    make([][]int64, r.Rows()),
	}
	for j, d := range r.Series {
		jr.Series[j] = jsonSeries{Name: d.Name, Kind: d.Kind.String()}
	}
	for i := range jr.Samples {
		jr.Samples[i] = r.Row(i)
	}
	return jr
}

// WriteJSONAll encodes recordings as a JSON array (one object per
// recording, samples row-major).
func WriteJSONAll(w io.Writer, recs []*Recording) error {
	out := make([]jsonRecording, len(recs))
	for i, r := range recs {
		out[i] = toJSONRecording(r)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSONAll decodes a JSON recording array written by WriteJSONAll.
func ReadJSONAll(r io.Reader) ([]*Recording, error) {
	var in []jsonRecording
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	recs := make([]*Recording, len(in))
	for i, jr := range in {
		series := make([]SeriesDef, len(jr.Series))
		for j, s := range jr.Series {
			kind := Gauge
			if s.Kind == Counter.String() {
				kind = Counter
			}
			series[j] = SeriesDef{Name: s.Name, Kind: kind}
		}
		rec := NewRecording(jr.Meta, time.Duration(jr.IntervalNs), time.Duration(jr.StartNs), series)
		for _, row := range jr.Samples {
			if len(row) != len(series) {
				return nil, fmt.Errorf("obs: recording %d: row width %d, schema width %d", i, len(row), len(series))
			}
			rec.Append(row...)
		}
		recs[i] = rec
	}
	return recs, nil
}
