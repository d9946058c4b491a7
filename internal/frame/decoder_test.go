package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// sameFrame reports whether two decoded frames are equal, treating a nil
// and an empty Payload/Aux/Probs alike (a warm decoder hands out its kept
// storage at length 0 where a fresh one hands out nil).
func sameFrame(a, b *Frame) bool {
	norm := func(f *Frame) Frame {
		c := *f
		c.Payload = append([]byte(nil), f.Payload...)
		if f.Beacon != nil {
			bc := *f.Beacon
			bc.Aux = append([]uint16(nil), bc.Aux...)
			bc.Probs = append([]ProbEntry(nil), bc.Probs...)
			c.Beacon = &bc
		}
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func beaconOf(width int) *Frame {
	b := &Beacon{Anchor: 4, PrevAnchor: None}
	for i := 0; i < width; i++ {
		b.Aux = append(b.Aux, uint16(100+i))
		b.Probs = append(b.Probs, ProbEntry{From: uint16(i), To: uint16(width - i), Prob: float64(i) / float64(width)})
	}
	return &Frame{Type: TypeBeacon, Src: 9, Dst: Broadcast, Seq: uint32(width), FromVehicle: true, Beacon: b}
}

func mustMarshal(t testing.TB, f *Frame) []byte {
	t.Helper()
	buf, err := f.Marshal()
	if err != nil {
		t.Fatalf("marshal %v: %v", f, err)
	}
	return buf
}

// TestDecoderMatchesUnmarshal feeds one Decoder every frame type in an
// order where storage left by the previous frame would show — a narrow
// beacon after a wide one, an empty payload after a full one, a non-beacon
// after a beacon — with rejected input in between, and requires each
// result to equal a fresh Unmarshal of the same bytes.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	data := &Frame{Type: TypeData, Src: 1, Dst: 2, Seq: 7, Attempt: 2, AckBitmap: 0x81,
		FromVehicle: true, Payload: bytes.Repeat([]byte{0xC3}, 300)}
	dataBuf := mustMarshal(t, data)
	corrupt := append([]byte(nil), dataBuf...)
	corrupt[20] ^= 0x10
	unknown := mustMarshal(t, &Frame{Type: TypeAck})
	unknown[2] = 99
	resum(unknown)
	reserved := append([]byte(nil), dataBuf...)
	reserved[3] |= 0x80
	resum(reserved)

	steps := []struct {
		name string
		buf  []byte
		err  error // nil: must decode
	}{
		{"wide beacon", mustMarshal(t, beaconOf(40)), nil},
		{"data", dataBuf, nil},
		{"corrupt data", corrupt, ErrChecksum},
		{"narrow beacon", mustMarshal(t, beaconOf(2)), nil},
		{"truncated beacon", resum(append([]byte(nil), mustMarshal(t, beaconOf(2))[:30]...)), ErrTruncated},
		{"ack", mustMarshal(t, &Frame{Type: TypeAck, Src: 3, Dst: Broadcast, AckSrc: 1, AckSeq: 7, AckAttempt: 2}), nil},
		{"too short", dataBuf[:10], ErrTooShort},
		{"empty-payload data", mustMarshal(t, &Frame{Type: TypeData, Src: 1, Dst: 2, Seq: 8}), nil},
		{"unknown type", unknown, ErrBadType},
		{"reserved flag bit", reserved, ErrBadFlags},
		{"relay", mustMarshal(t, &Frame{Type: TypeRelay, Src: 5, Dst: 2, Seq: 7, Relayed: true, Orig: 1, Attempt: 2, Payload: []byte("relayed")}), nil},
		{"empty beacon", mustMarshal(t, beaconOf(0)), nil},
		{"salvage data", mustMarshal(t, &Frame{Type: TypeSalvageData, Src: 5, Dst: 6, Orig: 1, Payload: []byte("salvaged")}), nil},
		{"salvage req", mustMarshal(t, &Frame{Type: TypeSalvageReq, Src: 6, Dst: 5, Target: 1}), nil},
		{"register", mustMarshal(t, &Frame{Type: TypeRegister, Src: 6, Dst: 0xFF00, Target: 1}), nil},
	}
	var d Decoder
	for _, s := range steps {
		want, wantErr := Unmarshal(s.buf)
		got, err := d.Decode(s.buf)
		if !errors.Is(wantErr, s.err) { // errors.Is(err, nil) is err == nil
			t.Fatalf("%s: Unmarshal error = %v, want %v", s.name, wantErr, s.err)
		}
		if !errors.Is(err, s.err) {
			t.Errorf("%s: Decode error = %v, want %v", s.name, err, s.err)
		}
		if s.err != nil {
			if got != nil {
				t.Errorf("%s: Decode returned a frame with its error", s.name)
			}
			continue
		}
		if !sameFrame(got, want) {
			t.Errorf("%s: reused decoder gave %+v (beacon %+v), fresh gave %+v (beacon %+v)",
				s.name, got, got.Beacon, want, want.Beacon)
		}
		if (got.Type == TypeBeacon) != (got.Beacon != nil) {
			t.Errorf("%s: Beacon = %v on a %v frame", s.name, got.Beacon, got.Type)
		}
	}
}

// resum rewrites buf's CRC trailer in place, so a test can hand the
// decoder a well-checksummed frame whose body it has edited.
func resum(buf []byte) []byte {
	n := len(buf) - trailerLen
	binary.BigEndian.PutUint32(buf[n:], crc32.ChecksumIEEE(buf[:n]))
	return buf
}

// TestUnmarshalIsFresh pins Unmarshal's contract against the decoder
// behind it: two results share no storage.
func TestUnmarshalIsFresh(t *testing.T) {
	buf := mustMarshal(t, beaconOf(3))
	a, _ := Unmarshal(buf)
	b, _ := Unmarshal(buf)
	a.Beacon.Probs[0].From, a.Beacon.Aux[0], a.Seq = 999, 999, 999
	if b.Beacon.Probs[0].From == 999 || b.Beacon.Aux[0] == 999 || b.Seq == 999 {
		t.Error("two Unmarshal results share storage")
	}
}

// TestTrailingBytesRejected: a checksummed frame whose body is longer
// than its own length fields declare is not something the encoder emits,
// so strict decoding refuses it — for every frame type.
func TestTrailingBytesRejected(t *testing.T) {
	frames := []*Frame{
		{Type: TypeData, Src: 1, Dst: 2, Payload: []byte("abc")},
		{Type: TypeAck, Src: 1, Dst: Broadcast, AckSrc: 2, AckSeq: 3},
		beaconOf(2),
		{Type: TypeSalvageReq, Src: 1, Dst: 2, Target: 3},
		{Type: TypeSalvageData, Src: 1, Dst: 2, Orig: 3, Payload: []byte("abc")},
		{Type: TypeRelay, Src: 1, Dst: 2, Orig: 3, Payload: []byte("abc")},
		{Type: TypeRegister, Src: 1, Dst: 2, Target: 3},
	}
	for _, f := range frames {
		good := mustMarshal(t, f)
		body := good[:len(good)-trailerLen]
		long := resum(append(append([]byte(nil), body...), 0, 0, 0, 0, 0, 0, 0))
		if _, err := Unmarshal(long); !errors.Is(err, ErrTrailing) {
			t.Errorf("%v with 3 extra body bytes: err = %v, want ErrTrailing", f.Type, err)
		}
	}
}

// TestWarmDecoderAllocFree is the receive path's guard: once a decoder has
// seen a beacon this wide and a payload this long, decoding allocates
// nothing.
func TestWarmDecoderAllocFree(t *testing.T) {
	beacon := mustMarshal(t, beaconOf(40))
	data := mustMarshal(t, &Frame{Type: TypeData, Src: 1, Dst: 2, Seq: 1, Payload: make([]byte, 500)})
	var d Decoder
	for _, buf := range [][]byte{beacon, data} {
		if _, err := d.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if f, err := d.Decode(beacon); err != nil || len(f.Beacon.Probs) != 40 {
			t.Fatal("beacon decode failed")
		}
		if f, err := d.Decode(data); err != nil || len(f.Payload) != 500 {
			t.Fatal("data decode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("warm decoder allocates %.1f objects per beacon+data, want 0", allocs)
	}
}

// FuzzDecode: arbitrary bytes never panic; a reused decoder and a fresh
// Unmarshal agree on error and value; and whatever decodes re-encodes to
// exactly the input (strictness: one byte image per accepted frame).
func FuzzDecode(f *testing.F) {
	for _, fr := range []*Frame{
		{Type: TypeData, Src: 1, Dst: 2, Seq: 3, Attempt: 1, AckBitmap: 5, Payload: []byte("payload")},
		{Type: TypeData, Src: 1, Dst: 2},
		{Type: TypeAck, Src: 1, Dst: Broadcast, AckSrc: 2, AckSeq: 3, AckAttempt: 1},
		beaconOf(0), beaconOf(3), beaconOf(40),
		{Type: TypeSalvageReq, Src: 1, Dst: 2, Target: 3},
		{Type: TypeSalvageData, Src: 1, Dst: 2, Orig: 3, Payload: []byte("salvage")},
		{Type: TypeRelay, Src: 1, Dst: 2, Orig: 3, Relayed: true, Payload: []byte("relay")},
		{Type: TypeRegister, Src: 1, Dst: 2, Target: 3},
	} {
		buf := mustMarshal(f, fr)
		f.Add(buf)
		f.Add(buf[:len(buf)-5])
		f.Add(resum(append(append([]byte(nil), buf[:len(buf)-trailerLen]...), 1, 2, 3, 0, 0, 0, 0)))
	}
	wide, full := mustMarshal(f, beaconOf(40)), mustMarshal(f, &Frame{Type: TypeData, Payload: make([]byte, 64)})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder under test arrives with storage from earlier frames.
		var d Decoder
		for _, buf := range [][]byte{wide, full} {
			if _, err := d.Decode(buf); err != nil {
				t.Fatal(err)
			}
		}
		// Fuzzed bytes rarely carry a valid CRC; also try them re-summed so
		// the body parsers see arbitrary lengths and counts.
		inputs := [][]byte{data}
		if len(data) >= headerLen+trailerLen {
			inputs = append(inputs, resum(append([]byte(nil), data...)))
		}
		for _, in := range inputs {
			want, wantErr := Unmarshal(in)
			got, err := d.Decode(in)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("reused decoder err = %v, fresh err = %v", err, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameFrame(got, want) {
				t.Fatalf("reused decoder gave %+v, fresh gave %+v", got, want)
			}
			if got.WireSize() != len(in) {
				t.Fatalf("WireSize = %d for a %d-byte frame", got.WireSize(), len(in))
			}
			out, err := got.AppendTo(nil)
			if err != nil || !bytes.Equal(out, in) {
				t.Fatalf("accepted %x re-encodes to %x (err %v)", in, out, err)
			}
		}
	})
}
