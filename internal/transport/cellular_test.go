package transport

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// The §5.3.1 EVDO comparison point. Nothing outside these tests runs over
// a cellular link, so the model lives here as their fixture.

// CellularLink models the EVDO Rev. A reference of §5.3.1: an always-on,
// asymmetric, moderately lossy pipe with fixed one-way latency. Payloads
// sent through it arrive at the far side after serialization + latency.
type CellularLink struct {
	K          *sim.Kernel
	DownBps    float64
	UpBps      float64
	OneWay     time.Duration
	Loss       float64
	rng        *sim.RNG
	downBusyAt time.Duration
	upBusyAt   time.Duration
	toVehicle  func([]byte)
	toServer   func([]byte)
}

// NewCellularLink creates the reference link. Defaults approximate EVDO
// Rev. A: 2.4 Mbit/s down, 0.8 Mbit/s up, 75 ms one-way, 1 % loss.
func NewCellularLink(k *sim.Kernel) *CellularLink {
	return &CellularLink{
		K: k, DownBps: 2.4e6, UpBps: 0.8e6,
		OneWay: 75 * time.Millisecond, Loss: 0.01,
		rng: k.RNG("cellular"),
	}
}

// Bind installs the two delivery callbacks.
func (c *CellularLink) Bind(toVehicle, toServer func([]byte)) {
	c.toVehicle = toVehicle
	c.toServer = toServer
}

// SendDown carries a payload from the wired host to the vehicle.
func (c *CellularLink) SendDown(p []byte) bool {
	return c.push(p, c.DownBps, &c.downBusyAt, func(b []byte) {
		if c.toVehicle != nil {
			c.toVehicle(b)
		}
	})
}

// SendUp carries a payload from the vehicle to the wired host.
func (c *CellularLink) SendUp(p []byte) bool {
	return c.push(p, c.UpBps, &c.upBusyAt, func(b []byte) {
		if c.toServer != nil {
			c.toServer(b)
		}
	})
}

func (c *CellularLink) push(p []byte, rate float64, busy *time.Duration, out func([]byte)) bool {
	if c.rng.Bool(c.Loss) {
		return true // accepted, lost in flight
	}
	now := c.K.Now()
	start := now
	if *busy > start {
		start = *busy
	}
	ser := time.Duration(float64(len(p)*8) / rate * float64(time.Second))
	*busy = start + ser
	buf := append([]byte(nil), p...)
	c.K.At(*busy+c.OneWay, func() { out(buf) })
	return true
}

func TestCellularLinkLatencyAndRate(t *testing.T) {
	k := sim.NewKernel(9)
	c := NewCellularLink(k)
	c.Loss = 0
	var gotAt []time.Duration
	c.Bind(func(b []byte) { gotAt = append(gotAt, k.Now()) }, nil)
	c.SendDown(make([]byte, 3000)) // 10 ms at 2.4 Mbps
	c.SendDown(make([]byte, 3000))
	k.Run()
	if len(gotAt) != 2 {
		t.Fatalf("deliveries = %d", len(gotAt))
	}
	ser := time.Duration(float64(3000*8) / 2.4e6 * float64(time.Second))
	if gotAt[0] != ser+75*time.Millisecond {
		t.Errorf("first delivery at %v, want %v", gotAt[0], ser+75*time.Millisecond)
	}
	if gotAt[1]-gotAt[0] != ser {
		t.Errorf("spacing %v, want serialization %v", gotAt[1]-gotAt[0], ser)
	}
}

func TestTCPOverCellularReference(t *testing.T) {
	// The §5.3.1 sanity point: a 10 KB fetch over the EVDO-like link
	// completes in several hundred ms (the paper measured 0.75 s down).
	k := sim.NewKernel(10)
	link := NewCellularLink(k)
	link.Loss = 0
	var res TransferResult
	s := NewSender(k, DefaultConfig(), 1, 10*1024, link.SendDown, func(r TransferResult) { res = r })
	r := NewReceiver(k, 1, link.SendUp)
	link.Bind(r.Deliver, s.Deliver)
	s.Start()
	k.RunUntil(10 * time.Second)
	if !res.Completed {
		t.Fatal("cellular transfer did not complete")
	}
	if res.Duration < 300*time.Millisecond || res.Duration > 1500*time.Millisecond {
		t.Errorf("cellular 10KB fetch took %v, want several hundred ms", res.Duration)
	}
}
