package openflow

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vswitch"
)

// DefaultRPCTimeout bounds controller request/reply round trips.
const DefaultRPCTimeout = 5 * time.Second

// PacketInHandler consumes packet-in events on the controller side.
type PacketInHandler func(PacketIn)

// Controller is the controller-side endpoint of the control channel: the
// traffic steering manager of one LSI talks to its switch through it.
type Controller struct {
	conn net.Conn

	writeMu sync.Mutex
	xid     atomic.Uint32

	mu       sync.Mutex
	pending  map[uint32]chan Message
	onPktIn  PacketInHandler
	features FeaturesReply
	runErr   error
	done     chan struct{}
	closed   bool

	rpcTimeout time.Duration
}

// Connect performs the handshake (HELLO exchange + feature discovery) over
// conn and starts the receive loop. The returned controller is ready to
// install flows.
func Connect(conn net.Conn) (*Controller, error) {
	c := &Controller{
		conn:       conn,
		pending:    make(map[uint32]chan Message),
		done:       make(chan struct{}),
		rpcTimeout: DefaultRPCTimeout,
	}
	if err := c.write(Message{Type: TypeHello}); err != nil {
		return nil, fmt.Errorf("openflow: hello: %w", err)
	}
	hello, err := ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("openflow: waiting for hello: %w", err)
	}
	if hello.Type != TypeHello {
		return nil, fmt.Errorf("openflow: expected HELLO, got %v", hello.Type)
	}
	// Feature discovery happens before the receive loop starts, so read
	// the reply inline.
	xid := c.nextXid()
	if err := c.write(Message{Type: TypeFeaturesRequest, Xid: xid}); err != nil {
		return nil, fmt.Errorf("openflow: features request: %w", err)
	}
	for {
		m, err := ReadMessage(conn)
		if err != nil {
			return nil, fmt.Errorf("openflow: waiting for features: %w", err)
		}
		if m.Type != TypeFeaturesReply {
			continue // e.g. early packet-in before handler installed: drop
		}
		f, err := ParseFeaturesReply(m.Body)
		if err != nil {
			return nil, err
		}
		c.features = f
		break
	}
	go c.readLoop()
	return c, nil
}

// SetPacketInHandler installs the packet-in callback.
func (c *Controller) SetPacketInHandler(fn PacketInHandler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPktIn = fn
}

// Close shuts the control channel down.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// Err returns the receive-loop error, if the channel failed.
func (c *Controller) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}

func (c *Controller) nextXid() uint32 {
	for {
		if x := c.xid.Add(1); x != 0 {
			return x
		}
	}
}

func (c *Controller) write(m Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteMessage(c.conn, m)
}

func (c *Controller) readLoop() {
	defer close(c.done)
	for {
		m, err := ReadMessage(c.conn)
		if err != nil {
			c.mu.Lock()
			if !c.closed && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
				c.runErr = err
			}
			// Fail all pending RPCs.
			for xid, ch := range c.pending {
				close(ch)
				delete(c.pending, xid)
			}
			c.mu.Unlock()
			return
		}
		switch m.Type {
		case TypePacketIn:
			pi, err := ParsePacketIn(m.Body)
			if err != nil {
				continue
			}
			c.mu.Lock()
			fn := c.onPktIn
			c.mu.Unlock()
			if fn != nil {
				fn(pi)
			}
		case TypeEchoRequest:
			_ = c.write(Message{Type: TypeEchoReply, Xid: m.Xid, Body: m.Body})
		default:
			c.mu.Lock()
			ch, ok := c.pending[m.Xid]
			if ok {
				delete(c.pending, m.Xid)
			}
			c.mu.Unlock()
			if ok {
				ch <- m
			}
		}
	}
}

// rpc sends a request and waits for the reply carrying the same xid.
func (c *Controller) rpc(m Message) (Message, error) {
	ch := make(chan Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Message{}, errors.New("openflow: controller closed")
	}
	c.pending[m.Xid] = ch
	c.mu.Unlock()
	if err := c.write(m); err != nil {
		c.mu.Lock()
		delete(c.pending, m.Xid)
		c.mu.Unlock()
		return Message{}, err
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return Message{}, errors.New("openflow: connection lost")
		}
		if reply.Type == TypeError {
			code, detail, _ := ParseError(reply.Body)
			return Message{}, fmt.Errorf("openflow: error %d: %s", code, detail)
		}
		return reply, nil
	case <-time.After(c.rpcTimeout):
		c.mu.Lock()
		delete(c.pending, m.Xid)
		c.mu.Unlock()
		return Message{}, fmt.Errorf("openflow: rpc timeout for %v", m.Type)
	}
}

// InstallFlow installs one flow entry on the switch. The call is
// asynchronous; use Barrier to synchronize.
func (c *Controller) InstallFlow(table, priority int, cookie uint64, match vswitch.Match, actions []vswitch.Action) error {
	body, err := EncodeFlowMod(FlowMod{
		Command:  FlowAdd,
		TableID:  uint8(table),
		Priority: uint16(priority),
		Cookie:   cookie,
		Match:    match,
		Actions:  actions,
	})
	if err != nil {
		return err
	}
	return c.write(Message{Type: TypeFlowMod, Xid: c.nextXid(), Body: body})
}

// DeleteFlows removes all entries installed under the given cookie.
func (c *Controller) DeleteFlows(cookie uint64) error {
	body, err := EncodeFlowMod(FlowMod{Command: FlowDelete, Cookie: cookie})
	if err != nil {
		return err
	}
	return c.write(Message{Type: TypeFlowMod, Xid: c.nextXid(), Body: body})
}

// DeleteAllFlows clears every table of the switch.
func (c *Controller) DeleteAllFlows() error {
	body, err := EncodeFlowMod(FlowMod{Command: FlowDeleteAll})
	if err != nil {
		return err
	}
	return c.write(Message{Type: TypeFlowMod, Xid: c.nextXid(), Body: body})
}

// Barrier blocks until the switch has processed all previously sent
// messages.
func (c *Controller) Barrier() error {
	_, err := c.rpc(Message{Type: TypeBarrierRequest, Xid: c.nextXid()})
	return err
}

// FlowStats retrieves the per-entry counters of the switch.
func (c *Controller) FlowStats() ([]FlowStat, error) {
	reply, err := c.rpc(Message{Type: TypeFlowStatsReq, Xid: c.nextXid()})
	if err != nil {
		return nil, err
	}
	return ParseFlowStatsReply(reply.Body)
}

// echo round-trips an echo request, verifying channel liveness.
func (c *Controller) echo(payload []byte) error {
	reply, err := c.rpc(Message{Type: TypeEchoRequest, Xid: c.nextXid(), Body: payload})
	if err != nil {
		return err
	}
	if string(reply.Body) != string(payload) {
		return errors.New("openflow: echo payload mismatch")
	}
	return nil
}

// PacketOut asks the switch to emit data. A nonzero outPort sends directly;
// outPort 0 injects the frame into the pipeline at inPort.
func (c *Controller) PacketOut(inPort, outPort uint32, data []byte) error {
	body := EncodePacketOut(PacketOut{InPort: inPort, OutPort: outPort, Data: data})
	return c.write(Message{Type: TypePacketOut, Xid: c.nextXid(), Body: body})
}
