package mac

import "github.com/vanlan/vifi/internal/radio"

// Receiver is the radio receiver the MAC attached with, so that a test can
// wrap it through radio.Channel.SetReceiver.
func (m *MAC) Receiver() radio.Receiver { return radio.ReceiverFunc(m.radioReceive) }

// Handler is the handler installed with SetHandler, so that a test can wrap
// it.
func (m *MAC) Handler() Handler { return m.handler }
