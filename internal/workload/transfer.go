package workload

import (
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/transport"
)

// stallTimeout is the §5.3.1 abort: "transfers that make no progress for
// ten seconds are terminated". It guards every TCP transfer and every web
// object.
const stallTimeout = 10 * time.Second

// transfer is the one mini-TCP download engine under the TCP and Web
// drivers: a sender at the wired host and a receiver at the vehicle on a
// fresh connection id per object, the §5.3.1 no-progress guard
// ("transfers that make no progress for ten seconds are terminated"), and
// the routing of delivered datagrams to the two endpoints. The driver
// above it decides what to fetch next and when; settled tells it how each
// fetch ended.
//
// Endpoints outlive their transfer until the next open or an explicit
// drop. TCP keeps them through its inter-transfer gap, so a late
// duplicate of the previous connection is still re-acknowledged; Web
// drops them while the user thinks, so it is ignored.
type transfer struct {
	k       *sim.Kernel
	port    Port
	settled func(transport.TransferResult)

	conn     uint32
	sender   *transport.Sender
	receiver *transport.Receiver

	acked   int // sender progress at the guard's last look
	guard   sim.Timer
	stopped bool
}

// open starts a size-byte download on the next connection id and arms the
// no-progress guard.
func (x *transfer) open(size int) {
	x.conn++
	x.sender = transport.NewSender(x.k, transport.DefaultConfig(), x.conn, size, x.port.SendDown, x.done)
	x.receiver = transport.NewReceiver(x.k, x.conn, x.port.SendUp)
	x.sender.Start()
	x.acked = 0
	x.guard = x.k.After(stallTimeout, x.check)
}

// check aborts the transfer when a whole stallTimeout passed without newly
// acknowledged bytes, and otherwise keeps watching.
func (x *transfer) check() {
	if p := x.sender.Progress(); p > x.acked {
		x.acked = p
		x.guard = x.k.After(stallTimeout, x.check)
		return
	}
	x.sender.Abort()
}

// done disarms the guard and hands the result to the driver.
func (x *transfer) done(r transport.TransferResult) {
	x.guard.Stop()
	x.settled(r)
}

// drop forgets the endpoints: datagrams of the finished connection are
// ignored from here on.
func (x *transfer) drop() { x.sender, x.receiver = nil, nil }

// stop halts the engine for good: the guard is disarmed and deliveries
// are ignored.
func (x *transfer) stop() {
	x.stopped = true
	x.guard.Stop()
}

// deliverDown feeds a datagram that arrived at the vehicle (object data
// and SYNs reach the receiver here).
func (x *transfer) deliverDown(p []byte) {
	if !x.stopped && x.receiver != nil {
		x.receiver.Deliver(p)
	}
}

// deliverUp feeds a datagram that arrived at the gateway (SYN-ACKs and
// acks reach the sender here).
func (x *transfer) deliverUp(p []byte) {
	if !x.stopped && x.sender != nil {
		x.sender.Deliver(p)
	}
}
