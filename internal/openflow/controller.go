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

// rpcTimeout bounds controller request/reply round trips.
const rpcTimeout = 5 * time.Second

// Controller is the controller-side endpoint of the control channel: the
// traffic steering manager of one LSI talks to its switch through it.
type Controller struct {
	conn net.Conn

	writeMu sync.Mutex
	xid     atomic.Uint32

	mu      sync.Mutex
	pending map[uint32]chan message
	runErr  error
	done    chan struct{}
	closed  bool
}

// Connect performs the HELLO handshake over conn and starts the receive
// loop. The returned controller is ready to install flows.
func Connect(conn net.Conn) (*Controller, error) {
	c := &Controller{
		conn:    conn,
		pending: make(map[uint32]chan message),
		done:    make(chan struct{}),
	}
	if err := c.write(message{Type: typeHello}); err != nil {
		return nil, fmt.Errorf("openflow: hello: %w", err)
	}
	hello, err := readMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("openflow: waiting for hello: %w", err)
	}
	if hello.Type != typeHello {
		return nil, fmt.Errorf("openflow: expected HELLO, got %v", hello.Type)
	}
	go c.readLoop()
	return c, nil
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

func (c *Controller) write(m message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeMessage(c.conn, m)
}

// readLoop hands every reply to the request waiting on its xid; a reply
// nobody waits for (the ERROR to an asynchronous flow-mod) is dropped.
func (c *Controller) readLoop() {
	defer close(c.done)
	for {
		m, err := readMessage(c.conn)
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

// rpc sends a request and waits for the reply carrying the same xid.
func (c *Controller) rpc(m message) (message, error) {
	ch := make(chan message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return message{}, errors.New("openflow: controller closed")
	}
	c.pending[m.Xid] = ch
	c.mu.Unlock()
	if err := c.write(m); err != nil {
		c.mu.Lock()
		delete(c.pending, m.Xid)
		c.mu.Unlock()
		return message{}, err
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return message{}, errors.New("openflow: connection lost")
		}
		if reply.Type == typeError {
			code, detail, _ := parseError(reply.Body)
			return message{}, fmt.Errorf("openflow: error %d: %s", code, detail)
		}
		return reply, nil
	case <-time.After(rpcTimeout):
		c.mu.Lock()
		delete(c.pending, m.Xid)
		c.mu.Unlock()
		return message{}, fmt.Errorf("openflow: rpc timeout for %v", m.Type)
	}
}

// InstallFlow installs one flow entry into the switch's flow table, table 0;
// any other table is refused, since a switch has only that one. The call is
// asynchronous; use Barrier to synchronize.
func (c *Controller) InstallFlow(table, priority int, cookie uint64, match vswitch.Match, actions []vswitch.Action) error {
	if table != 0 {
		return fmt.Errorf("openflow: table %d: the switch has one flow table, table 0", table)
	}
	body, err := encodeFlowMod(flowMod{
		Command:  flowAdd,
		Priority: uint16(priority),
		Cookie:   cookie,
		Match:    match,
		Actions:  actions,
	})
	if err != nil {
		return err
	}
	return c.write(message{Type: typeFlowMod, Xid: c.nextXid(), Body: body})
}

// DeleteFlows removes all entries installed under the given cookie.
func (c *Controller) DeleteFlows(cookie uint64) error {
	body, err := encodeFlowMod(flowMod{Command: flowDelete, Cookie: cookie})
	if err != nil {
		return err
	}
	return c.write(message{Type: typeFlowMod, Xid: c.nextXid(), Body: body})
}

// Barrier blocks until the switch has processed all previously sent
// messages.
func (c *Controller) Barrier() error {
	_, err := c.rpc(message{Type: typeBarrierRequest, Xid: c.nextXid()})
	return err
}

// FlowStats retrieves the per-entry counters of the switch.
func (c *Controller) FlowStats() ([]FlowStat, error) {
	reply, err := c.rpc(message{Type: typeFlowStatsReq, Xid: c.nextXid()})
	if err != nil {
		return nil, err
	}
	return parseFlowStatsReply(reply.Body)
}
