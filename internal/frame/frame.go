// Package frame defines the over-the-air and over-backplane wire format of
// the ViFi reproduction and its binary codec.
//
// All protocol traffic — data packets, ViFi acknowledgments, beacons with
// embedded anchor/auxiliary designations and reception-probability reports
// (§4.3, §4.6 of the paper), and backplane salvage messages (§4.5) — is
// serialized through this package, so protocol logic is always exercised
// against real byte images, including truncation and corruption, not
// in-memory structs. A CRC-32 trailer detects corruption; decoding is
// strict and returns typed errors.
//
// Wire layout (big endian):
//
//	offset  size  field
//	0       1     magic 'V'
//	1       1     version (1)
//	2       1     type
//	3       1     flags (bit0: relayed, bit1: from a vehicle; the rest zero)
//	4       2     src node id
//	6       2     dst node id (0xFFFF = broadcast)
//	8       4     seq
//	12      1     ack bitmap (data frames; §4.8 "1-byte bitmap")
//	13      ...   type-specific body
//	len-4   4     CRC-32 (IEEE) over everything before it
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Type discriminates frame bodies.
type Type uint8

// Frame types. Data, Ack and Beacon travel over the air; SalvageReq,
// SalvageData and Relay travel over the inter-BS backplane.
const (
	TypeData Type = iota + 1
	TypeAck
	TypeBeacon
	TypeSalvageReq
	TypeSalvageData
	TypeRelay
	// TypeRegister tells the Internet gateway which basestation is now the
	// anchor for a vehicle (the "existing solutions" hook of §4: Mobile IP
	// style registration, reduced to its essence).
	TypeRegister
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeBeacon:
		return "beacon"
	case TypeSalvageReq:
		return "salvage-req"
	case TypeSalvageData:
		return "salvage-data"
	case TypeRelay:
		return "relay"
	case TypeRegister:
		return "register"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Broadcast is the destination id addressing every listener.
const Broadcast uint16 = 0xFFFF

// None marks an absent node reference (e.g. no previous anchor yet).
const None uint16 = 0xFFFE

// Codec errors.
var (
	ErrTooShort   = errors.New("frame: buffer too short")
	ErrBadMagic   = errors.New("frame: bad magic")
	ErrBadVersion = errors.New("frame: unsupported version")
	ErrBadType    = errors.New("frame: unknown type")
	ErrChecksum   = errors.New("frame: checksum mismatch")
	ErrTruncated  = errors.New("frame: truncated body")
	ErrOversize   = errors.New("frame: field exceeds wire limits")
	ErrTrailing   = errors.New("frame: bytes after the declared body")
	ErrBadFlags   = errors.New("frame: reserved flag bits set")
)

const (
	magic      = 'V'
	version    = 1
	headerLen  = 13
	trailerLen = 4

	flagRelayed     = 1 << 0
	flagFromVehicle = 1 << 1
)

// ProbEntry reports a directed reception probability p(From→To), the unit
// of the beacon dissemination scheme of §4.6.
type ProbEntry struct {
	From, To uint16
	Prob     float64 // [0,1], quantized to 1/255 on the wire
}

// Beacon is the body of a TypeBeacon frame. Vehicles fill Anchor,
// PrevAnchor and Aux (§4.3); all nodes fill Probs with the reception
// probabilities they have measured or learned (§4.6).
type Beacon struct {
	Anchor     uint16
	PrevAnchor uint16
	Aux        []uint16
	Probs      []ProbEntry
}

// Frame is the decoded representation of any wire frame.
type Frame struct {
	Type    Type
	Src     uint16
	Dst     uint16
	Seq     uint32
	Relayed bool
	// FromVehicle marks frames originated by a vehicle (flags bit 1);
	// basestations use it to recognize vehicle beacons.
	FromVehicle bool
	// AckBitmap signals which of the eight packets before Seq the sender
	// has NOT seen acknowledged (bit i ↔ Seq-1-i), §4.8.
	AckBitmap uint8
	// Attempt distinguishes retransmissions of the same Seq so that
	// acknowledgments are "not confused with an earlier transmission"
	// (§4.7) and per-transmission statistics (Table 1) are exact.
	Attempt uint8

	// Payload is the application payload for TypeData, TypeSalvageData and
	// TypeRelay frames.
	Payload []byte

	// AckSrc/AckSeq/AckAttempt identify the acknowledged transmission for
	// TypeAck.
	AckSrc     uint16
	AckSeq     uint32
	AckAttempt uint8

	// Beacon is non-nil for TypeBeacon.
	Beacon *Beacon

	// Orig identifies the original source of an encapsulated packet for
	// TypeRelay and TypeSalvageData; Target is the vehicle a
	// TypeSalvageReq asks about.
	Orig   uint16
	Target uint16
}

// quantizeProb maps [0,1] to a wire byte.
func quantizeProb(p float64) uint8 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 255
	}
	return uint8(math.Round(p * 255))
}

// dequantizeProb maps a wire byte back to [0,1].
func dequantizeProb(b uint8) float64 { return float64(b) / 255 }

// Marshal encodes the frame to a fresh byte slice.
func (f *Frame) Marshal() ([]byte, error) {
	return f.AppendTo(nil)
}

// sizeChecked validates the frame and returns its exact wire size. The
// size arithmetic itself lives in WireSize — single source of truth, so
// the pooled-buffer sizing in senders can never drift from the encoder.
func (f *Frame) sizeChecked() (int, error) {
	switch f.Type {
	case TypeData, TypeAck, TypeSalvageReq, TypeSalvageData, TypeRelay, TypeRegister:
	case TypeBeacon:
		if f.Beacon == nil {
			return 0, fmt.Errorf("%w: beacon frame without body", ErrBadType)
		}
		if len(f.Beacon.Aux) > 255 || len(f.Beacon.Probs) > 255 {
			return 0, ErrOversize
		}
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	if len(f.Payload) > 0xFFFF {
		return 0, ErrOversize
	}
	return f.WireSize(), nil
}

// AppendTo appends the frame's encoding to dst and returns the extended
// slice. When dst has enough spare capacity (e.g. a pooled buffer sized
// with WireSize) no allocation occurs, which is what keeps the MAC's
// send path allocation-free.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	size, err := f.sizeChecked()
	if err != nil {
		return dst, err
	}
	off := len(dst)
	if cap(dst)-off >= size {
		dst = dst[:off+size]
	} else {
		dst = append(dst, make([]byte, size)...)
	}
	buf := dst[off : off+size]

	buf[0] = magic
	buf[1] = version
	buf[2] = byte(f.Type)
	var flags byte
	if f.Relayed {
		flags |= flagRelayed
	}
	if f.FromVehicle {
		flags |= flagFromVehicle
	}
	buf[3] = flags
	binary.BigEndian.PutUint16(buf[4:], f.Src)
	binary.BigEndian.PutUint16(buf[6:], f.Dst)
	binary.BigEndian.PutUint32(buf[8:], f.Seq)
	buf[12] = f.AckBitmap

	b := buf[headerLen:]
	switch f.Type {
	case TypeData:
		b[0] = f.Attempt
		binary.BigEndian.PutUint16(b[1:], uint16(len(f.Payload)))
		copy(b[3:], f.Payload)
	case TypeAck:
		binary.BigEndian.PutUint16(b, f.AckSrc)
		binary.BigEndian.PutUint32(b[2:], f.AckSeq)
		b[6] = f.AckAttempt
	case TypeBeacon:
		bc := f.Beacon
		binary.BigEndian.PutUint16(b, bc.Anchor)
		binary.BigEndian.PutUint16(b[2:], bc.PrevAnchor)
		b[4] = byte(len(bc.Aux))
		o := 5
		for _, a := range bc.Aux {
			binary.BigEndian.PutUint16(b[o:], a)
			o += 2
		}
		b[o] = byte(len(bc.Probs))
		o++
		for _, pe := range bc.Probs {
			binary.BigEndian.PutUint16(b[o:], pe.From)
			binary.BigEndian.PutUint16(b[o+2:], pe.To)
			b[o+4] = quantizeProb(pe.Prob)
			o += 5
		}
	case TypeSalvageReq:
		binary.BigEndian.PutUint16(b, f.Target)
	case TypeSalvageData, TypeRelay:
		binary.BigEndian.PutUint16(b, f.Orig)
		b[2] = f.Attempt
		binary.BigEndian.PutUint16(b[3:], uint16(len(f.Payload)))
		copy(b[5:], f.Payload)
	case TypeRegister:
		binary.BigEndian.PutUint16(b, f.Target)
	}

	crc := crc32.ChecksumIEEE(buf[:size-trailerLen])
	binary.BigEndian.PutUint32(buf[size-trailerLen:], crc)
	return dst, nil
}

// Decoder decodes wire frames into storage it owns: one Frame, one Beacon
// body whose Aux and Probs capacity is kept across calls, and one payload
// buffer; it allocates nothing once the widest beacon and the largest
// payload have been seen. The zero value is ready to use. One may serve
// many receivers in turn (a radio channel's, for every receiver of a
// transmission), never concurrently, and they only read what it returns.
type Decoder struct {
	f       Frame
	beacon  Beacon
	payload []byte
}

// Decode decodes a frame from buf. The returned frame, its Beacon and its
// Payload are borrowed from the decoder: they are valid until the next
// Decode, and a caller that keeps any of them longer copies what it keeps.
// Nothing returned aliases buf. On error the decoder's storage is
// unspecified and the next Decode is unaffected.
func (d *Decoder) Decode(buf []byte) (*Frame, error) {
	if len(buf) < headerLen+trailerLen {
		return nil, ErrTooShort
	}
	if buf[0] != magic {
		return nil, ErrBadMagic
	}
	if buf[1] != version {
		return nil, ErrBadVersion
	}
	want := binary.BigEndian.Uint32(buf[len(buf)-trailerLen:])
	if crc32.ChecksumIEEE(buf[:len(buf)-trailerLen]) != want {
		return nil, ErrChecksum
	}
	if buf[3]&^(flagRelayed|flagFromVehicle) != 0 {
		return nil, ErrBadFlags
	}

	f := &d.f
	*f = Frame{
		Type:        Type(buf[2]),
		Relayed:     buf[3]&flagRelayed != 0,
		FromVehicle: buf[3]&flagFromVehicle != 0,
		Src:         binary.BigEndian.Uint16(buf[4:]),
		Dst:         binary.BigEndian.Uint16(buf[6:]),
		Seq:         binary.BigEndian.Uint32(buf[8:]),
		AckBitmap:   buf[12],
	}
	b := buf[headerLen : len(buf)-trailerLen]
	switch f.Type {
	case TypeData:
		if len(b) < 3 {
			return nil, ErrTruncated
		}
		f.Attempt = b[0]
		n := int(binary.BigEndian.Uint16(b[1:]))
		if err := bodyLen(b, 3+n); err != nil {
			return nil, err
		}
		f.Payload = d.keepPayload(b[3:])
	case TypeAck:
		if err := bodyLen(b, 7); err != nil {
			return nil, err
		}
		f.AckSrc = binary.BigEndian.Uint16(b)
		f.AckSeq = binary.BigEndian.Uint32(b[2:])
		f.AckAttempt = b[6]
	case TypeBeacon:
		if len(b) < 5 {
			return nil, ErrTruncated
		}
		bc := &d.beacon
		bc.Anchor = binary.BigEndian.Uint16(b)
		bc.PrevAnchor = binary.BigEndian.Uint16(b[2:])
		nAux := int(b[4])
		o := 5
		if len(b) < o+2*nAux+1 {
			return nil, ErrTruncated
		}
		nProbs := int(b[o+2*nAux])
		if err := bodyLen(b, o+2*nAux+1+5*nProbs); err != nil {
			return nil, err
		}
		if cap(bc.Aux) < nAux {
			bc.Aux = make([]uint16, nAux)
		}
		bc.Aux = bc.Aux[:nAux]
		for i := range bc.Aux {
			bc.Aux[i] = binary.BigEndian.Uint16(b[o:])
			o += 2
		}
		o++
		if cap(bc.Probs) < nProbs {
			bc.Probs = make([]ProbEntry, nProbs)
		}
		bc.Probs = bc.Probs[:nProbs]
		for i := range bc.Probs {
			bc.Probs[i] = ProbEntry{
				From: binary.BigEndian.Uint16(b[o:]),
				To:   binary.BigEndian.Uint16(b[o+2:]),
				Prob: dequantizeProb(b[o+4]),
			}
			o += 5
		}
		f.Beacon = bc
	case TypeSalvageReq, TypeRegister:
		if err := bodyLen(b, 2); err != nil {
			return nil, err
		}
		f.Target = binary.BigEndian.Uint16(b)
	case TypeSalvageData, TypeRelay:
		if len(b) < 5 {
			return nil, ErrTruncated
		}
		f.Orig = binary.BigEndian.Uint16(b)
		f.Attempt = b[2]
		n := int(binary.BigEndian.Uint16(b[3:]))
		if err := bodyLen(b, 5+n); err != nil {
			return nil, err
		}
		f.Payload = d.keepPayload(b[5:])
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, buf[2])
	}
	return f, nil
}

// bodyLen checks a body against the exact length its own fields declare:
// the encoder never emits anything else, so AppendTo(Decode(b)) == b for
// every b that decodes.
func bodyLen(b []byte, want int) error {
	switch {
	case len(b) < want:
		return ErrTruncated
	case len(b) > want:
		return ErrTrailing
	}
	return nil
}

// keepPayload copies p into the decoder's payload buffer.
func (d *Decoder) keepPayload(p []byte) []byte {
	d.payload = append(d.payload[:0], p...)
	return d.payload
}

// Unmarshal decodes a frame from buf into fresh storage: the result
// aliases neither buf nor any decoder, so callers may keep it and recycle
// buf. Receivers on a hot path own a Decoder instead.
func Unmarshal(buf []byte) (*Frame, error) {
	return new(Decoder).Decode(buf)
}

// WireSize returns the encoded size of the frame without allocating.
func (f *Frame) WireSize() int {
	size := headerLen + trailerLen
	switch f.Type {
	case TypeData:
		size += 3 + len(f.Payload)
	case TypeAck:
		size += 7
	case TypeBeacon:
		if f.Beacon != nil {
			size += 6 + 2*len(f.Beacon.Aux) + 5*len(f.Beacon.Probs)
		}
	case TypeSalvageReq, TypeRegister:
		size += 2
	case TypeSalvageData, TypeRelay:
		size += 5 + len(f.Payload)
	}
	return size
}

// PacketID identifies a data packet end to end: the original source and
// its sequence number. Relays preserve it, so duplicate suppression and
// acknowledgment matching work across paths (§4.7 "Each packet carries a
// unique identifier").
type PacketID struct {
	Src uint16
	Seq uint32
}

// ID returns the packet identity of a data-bearing frame. For relayed and
// salvaged frames the original source is used.
func (f *Frame) ID() PacketID {
	switch f.Type {
	case TypeRelay, TypeSalvageData:
		return PacketID{Src: f.Orig, Seq: f.Seq}
	default:
		return PacketID{Src: f.Src, Seq: f.Seq}
	}
}

func (f *Frame) String() string {
	return fmt.Sprintf("%s src=%d dst=%d seq=%d relayed=%v len=%d",
		f.Type, f.Src, f.Dst, f.Seq, f.Relayed, len(f.Payload))
}
