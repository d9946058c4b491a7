// Package transport is the miniature TCP under the ViFi paper's
// application workloads: connection setup, slow start, AIMD,
// duplicate-ack fast retransmit and exponential RTO backoff, one Sender
// and one Receiver per transfer. What is transferred, when, and when to
// give up (the §5.3.1 loop and its no-progress abort) is the business of
// the drivers in internal/workload.
//
// The mini-TCP deliberately reproduces the dynamics the paper's TCP
// results hinge on — loss-triggered retransmission timeouts and their
// exponential backoff on a lossy link layer — while staying compact. It
// runs over any datagram service (the ViFi cell, the BRR baseline, a
// cellular model) through the SendFunc/Deliver pair.
package transport

import (
	"encoding/binary"
	"errors"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// SendFunc transmits one datagram toward the peer. It reports whether the
// datagram was accepted for transmission (a vehicle without an anchor
// rejects, which TCP experiences as loss). The payload is borrowed for the
// call and an implementation keeps nothing of it past its return: it
// copies what it carries on, because each Sender and Receiver encodes
// every segment into one buffer of its own and overwrites it with the
// next.
type SendFunc func(payload []byte) bool

// Segment flags.
const (
	flagSYN uint8 = 1 << iota
	flagACK
	flagFIN
)

// segment is the mini-TCP wire unit, carried as an opaque payload by the
// link layer.
type segment struct {
	Flags   uint8
	Conn    uint32
	Seq     uint32 // first byte offset of Payload
	Ack     uint32 // next expected byte (valid when flagACK)
	Payload []byte
}

const segHeaderLen = 1 + 4 + 4 + 4 + 2

var errSegment = errors.New("transport: malformed segment")

// encodeSegment writes a segment with n zero payload bytes (the
// transfers carry no content) into buf's storage, growing it only when it
// is too short, and returns the encoded bytes.
func encodeSegment(buf []byte, flags uint8, conn, seq, ack uint32, n int) []byte {
	size := segHeaderLen + n
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	buf[0] = flags
	binary.BigEndian.PutUint32(buf[1:], conn)
	binary.BigEndian.PutUint32(buf[5:], seq)
	binary.BigEndian.PutUint32(buf[9:], ack)
	binary.BigEndian.PutUint16(buf[13:], uint16(n))
	clear(buf[segHeaderLen:])
	return buf
}

// parseSegment decodes a segment without copying: the returned Payload
// aliases buf, so it follows buf's ownership (valid only for the duration
// of the Deliver call that received it, per the DESIGN.md §6 rules). No
// consumer retains payload bytes: the receiver's out-of-order buffer keeps
// lengths only.
func parseSegment(buf []byte) (segment, error) {
	if len(buf) < segHeaderLen {
		return segment{}, errSegment
	}
	n := int(binary.BigEndian.Uint16(buf[13:]))
	if len(buf) < segHeaderLen+n {
		return segment{}, errSegment
	}
	return segment{
		Flags:   buf[0],
		Conn:    binary.BigEndian.Uint32(buf[1:]),
		Seq:     binary.BigEndian.Uint32(buf[5:]),
		Ack:     binary.BigEndian.Uint32(buf[9:]),
		Payload: buf[segHeaderLen : segHeaderLen+n : segHeaderLen+n],
	}, nil
}

// Config holds mini-TCP tunables.
type Config struct {
	MSS          int           // segment payload size
	InitCwnd     int           // initial window in segments
	SSThresh     int           // initial slow-start threshold in segments
	RTOInit      time.Duration // before any RTT sample (RFC 6298: 1 s)
	RTOMin       time.Duration // the paper leans on the 1 s minimum TCP RTO
	RTOMax       time.Duration
	DupAckThresh int
}

// DefaultConfig returns the evaluation settings.
func DefaultConfig() Config {
	return Config{
		MSS:          1000,
		InitCwnd:     2,
		SSThresh:     32,
		RTOInit:      1 * time.Second,
		RTOMin:       1 * time.Second,
		RTOMax:       16 * time.Second,
		DupAckThresh: 3,
	}
}

// TransferResult reports one finished (or aborted) transfer.
type TransferResult struct {
	Bytes     int
	Duration  time.Duration
	Completed bool
}

// Sender is the data-sending half of one mini-TCP transfer. It connects,
// streams size bytes, and reports completion through done.
type Sender struct {
	K    *sim.Kernel
	cfg  Config
	send SendFunc
	conn uint32
	size int
	done func(TransferResult)

	started     time.Duration
	established bool
	finished    bool

	sndUna   int // lowest unacknowledged byte
	sndNxt   int // next byte to send
	cwnd     float64
	ssthresh float64
	dupAcks  int

	srtt, rttvar time.Duration
	hasRTT       bool
	rto          time.Duration
	backoff      int
	rtoTimer     sim.Timer
	rtoH         rtoTask
	// RTT sampling (Karn's rule: only non-retransmitted segments).
	sampleSeq int
	sampleAt  time.Duration
	sampling  bool

	buf []byte // every segment is encoded here (SendFunc keeps nothing)

	// Counters.
	SegmentsSent int
	Timeouts     int
	FastRetx     int
}

// rtoTask is the sender's retransmission timer as a sim.Handler, so
// re-arming it per acknowledgment allocates no closure.
type rtoTask struct{ s *Sender }

func (t *rtoTask) OnEvent() { t.s.onRTO() }

// NewSender creates a sender for one transfer of size bytes.
func NewSender(k *sim.Kernel, cfg Config, conn uint32, size int, send SendFunc, done func(TransferResult)) *Sender {
	s := &Sender{
		K: k, cfg: cfg, send: send, conn: conn, size: size, done: done,
		cwnd:     float64(cfg.InitCwnd * cfg.MSS),
		ssthresh: float64(cfg.SSThresh * cfg.MSS),
		rto:      cfg.RTOInit,
	}
	s.rtoH.s = s
	return s
}

// Start sends the SYN.
func (s *Sender) Start() {
	s.started = s.K.Now()
	s.sendSYN()
	s.armRTO()
}

func (s *Sender) sendSYN() {
	s.SegmentsSent++
	s.buf = encodeSegment(s.buf, flagSYN, s.conn, 0, 0, 0)
	s.send(s.buf)
}

// Deliver feeds a datagram from the link layer into the sender.
func (s *Sender) Deliver(buf []byte) {
	seg, err := parseSegment(buf)
	if err != nil || seg.Conn != s.conn || s.finished {
		return
	}
	switch {
	case seg.Flags&flagSYN != 0 && seg.Flags&flagACK != 0:
		if !s.established {
			s.established = true
			s.pump()
		}
	case seg.Flags&flagACK != 0:
		s.handleAck(int(seg.Ack))
	}
}

func (s *Sender) handleAck(ack int) {
	now := s.K.Now()
	if ack > s.sndUna {
		// New data acknowledged.
		if s.sampling && ack > s.sampleSeq {
			s.updateRTT(now - s.sampleAt)
			s.sampling = false
		}
		acked := ack - s.sndUna
		s.sndUna = ack
		s.dupAcks = 0
		s.backoff = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
		} else {
			s.cwnd += float64(s.cfg.MSS) * float64(acked) / s.cwnd // AIMD
		}
		if s.sndUna >= s.size {
			s.complete(true)
			return
		}
		s.armRTO()
		s.pump()
		return
	}
	if ack == s.sndUna && s.sndNxt > s.sndUna {
		s.dupAcks++
		if s.dupAcks == s.cfg.DupAckThresh {
			// Fast retransmit.
			s.FastRetx++
			s.ssthresh = max64(s.cwnd/2, float64(2*s.cfg.MSS))
			s.cwnd = s.ssthresh
			s.retransmit()
		}
	}
}

func (s *Sender) updateRTT(sample time.Duration) {
	if !s.hasRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasRTT = true
	} else {
		d := s.srtt - sample
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.RTOMin {
		s.rto = s.cfg.RTOMin
	}
	if s.rto > s.cfg.RTOMax {
		s.rto = s.cfg.RTOMax
	}
}

// pump sends as much as the congestion window allows.
func (s *Sender) pump() {
	if !s.established || s.finished {
		return
	}
	for s.sndNxt < s.size && s.sndNxt-s.sndUna+s.cfg.MSS <= int(s.cwnd) {
		end := s.sndNxt + s.cfg.MSS
		if end > s.size {
			end = s.size
		}
		s.sendData(s.sndNxt, end)
		if !s.sampling {
			s.sampling = true
			s.sampleSeq = end
			s.sampleAt = s.K.Now()
		}
		s.sndNxt = end
	}
}

func (s *Sender) sendData(from, to int) {
	s.SegmentsSent++
	s.buf = encodeSegment(s.buf, 0, s.conn, uint32(from), 0, to-from)
	s.send(s.buf)
}

// retransmit resends the earliest unacknowledged segment.
func (s *Sender) retransmit() {
	if !s.established {
		s.sendSYN()
		s.armRTO()
		return
	}
	end := s.sndUna + s.cfg.MSS
	if end > s.size {
		end = s.size
	}
	if end > s.sndNxt {
		end = s.sndNxt
	}
	if end > s.sndUna {
		s.sendData(s.sndUna, end)
	}
	s.sampling = false // Karn's rule
	s.armRTO()
}

func (s *Sender) armRTO() {
	s.rtoTimer.Stop()
	d := s.rto << s.backoff
	if d > s.cfg.RTOMax {
		d = s.cfg.RTOMax
	}
	s.rtoTimer = s.K.AfterHandler(d, &s.rtoH)
}

func (s *Sender) onRTO() {
	if s.finished {
		return
	}
	s.Timeouts++
	s.backoff++
	s.ssthresh = max64(s.cwnd/2, float64(2*s.cfg.MSS))
	s.cwnd = float64(s.cfg.MSS) // collapse to one segment
	s.dupAcks = 0
	s.retransmit()
}

// Abort cancels the transfer (the workload's 10 s no-progress guard).
func (s *Sender) Abort() { s.complete(false) }

// Progress returns bytes acknowledged so far.
func (s *Sender) Progress() int { return s.sndUna }

func (s *Sender) complete(ok bool) {
	if s.finished {
		return
	}
	s.finished = true
	s.rtoTimer.Stop()
	if s.done != nil {
		s.done(TransferResult{Bytes: s.sndUna, Duration: s.K.Now() - s.started, Completed: ok})
	}
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Receiver is the data-receiving half: it completes the handshake,
// acknowledges cumulatively, and parks out-of-order segments. Nothing
// reads the bytes of a transfer, so a parked segment is its length.
type Receiver struct {
	send SendFunc
	conn uint32
	buf  []byte // every segment is encoded here (SendFunc keeps nothing)

	rcvNxt int
	ooo    map[int]int // out-of-order: seq → payload length
}

// NewReceiver creates the receiving half of a transfer. The kernel is not
// kept: a receiver keeps no timer and only answers what it is handed.
func NewReceiver(_ *sim.Kernel, conn uint32, send SendFunc) *Receiver {
	return &Receiver{send: send, conn: conn, ooo: map[int]int{}}
}

// Received reports contiguous bytes received so far.
func (r *Receiver) Received() int { return r.rcvNxt }

// Deliver feeds a datagram from the link layer into the receiver.
func (r *Receiver) Deliver(buf []byte) {
	seg, err := parseSegment(buf)
	if err != nil || seg.Conn != r.conn {
		return
	}
	if seg.Flags&flagSYN != 0 {
		// Handshake: SYN-ACK (repeated SYNs re-elicit it).
		r.buf = encodeSegment(r.buf, flagSYN|flagACK, r.conn, 0, 0, 0)
		r.send(r.buf)
		return
	}
	if len(seg.Payload) > 0 {
		seq := int(seg.Seq)
		if seq == r.rcvNxt {
			r.rcvNxt += len(seg.Payload)
			// Drain contiguous out-of-order data.
			for {
				n, ok := r.ooo[r.rcvNxt]
				if !ok {
					break
				}
				delete(r.ooo, r.rcvNxt)
				r.rcvNxt += n
			}
		} else if seq > r.rcvNxt {
			if _, dup := r.ooo[seq]; !dup {
				r.ooo[seq] = len(seg.Payload)
			}
		}
		r.buf = encodeSegment(r.buf, flagACK, r.conn, 0, uint32(r.rcvNxt), 0)
		r.send(r.buf)
	}
}
