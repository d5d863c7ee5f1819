package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vswitch"
)

// rpcTimeout bounds request/reply round trips over a connection.
const rpcTimeout = 5 * time.Second

// Controller is the controller-side endpoint of the control channel: the
// traffic steering manager of one LSI talks to its switch through it.
type Controller struct {
	ch  channel
	xid atomic.Uint32
}

// channel carries framed messages to a switch: over a connection to its
// agent (Connect), or by a call into what an agent serves it with (Local).
type channel interface {
	// send delivers msgs, which want no reply.
	send(msgs []byte) error
	// call delivers msgs, the last of which is a request under xid, and
	// returns its reply.
	call(xid uint32, msgs []byte) (message, error)
	shut() error // named close, it would make the linker keep os.File's close methods
}

// Connect performs the HELLO handshake over conn and starts the receive
// loop. The returned controller is ready to install flows.
func Connect(conn net.Conn) (*Controller, error) {
	c := &connChannel{
		conn:  conn,
		timer: time.NewTimer(rpcTimeout),
		reply: make(chan message, 1),
		done:  make(chan struct{}),
	}
	c.timer.Stop()
	if err := c.send(appendHeader(nil, typeHello, 0)); err != nil {
		return nil, fmt.Errorf("openflow: hello: %w", err)
	}
	hello, err := readMessage(conn, &c.hdr, nil)
	if err != nil {
		return nil, fmt.Errorf("openflow: waiting for hello: %w", err)
	}
	if hello.Type != typeHello {
		return nil, fmt.Errorf("openflow: expected HELLO, got %v", hello.Type)
	}
	go c.readLoop()
	return &Controller{ch: c}, nil
}

// Local returns a controller that applies its requests to sw in the
// caller's goroutine: the same messages, framing checks and BARRIER as
// over a connection, with no goroutine, no handshake and no timeout.
func Local(sw *vswitch.Switch) *Controller {
	return &Controller{ch: &localChannel{applier: applier{sw: sw}}}
}

// Close shuts the control channel down.
func (c *Controller) Close() error { return c.ch.shut() }

func (c *Controller) nextXid() uint32 {
	for {
		if x := c.xid.Add(1); x != 0 {
			return x
		}
	}
}

// call sends req and returns the reply to its last message, a request under
// xid; an ERROR reply is its error.
func (c *Controller) call(xid uint32, req []byte) (message, error) {
	reply, err := c.ch.call(xid, req)
	if err != nil || reply.Type != typeError {
		return reply, err
	}
	code, detail, _ := parseError(reply.Body)
	return message{}, fmt.Errorf("openflow: error %d: %s", code, detail)
}

// request sends a body-less request and waits for its reply.
func (c *Controller) request(t msgType) (message, error) {
	xid := c.nextXid()
	return c.call(xid, appendHeader(nil, t, xid))
}

// InstallFlow stages one flow entry for the switch's flow table, table 0;
// any other table is refused, since a switch has only that one. The switch
// applies it at the next Barrier, which fails if the entry was refused.
func (c *Controller) InstallFlow(table, priority int, cookie uint64, match vswitch.Match, actions []vswitch.Action) error {
	if table != 0 {
		return fmt.Errorf("openflow: table %d: the switch has one flow table, table 0", table)
	}
	msg, err := appendFlowMod(nil, c.nextXid(), flowMod{flowAdd, uint16(priority), cookie, match, actions})
	if err != nil {
		return err
	}
	return c.ch.send(msg)
}

// DeleteFlows stages the removal of all entries installed under the given
// cookie; the switch applies it at the next Barrier.
func (c *Controller) DeleteFlows(cookie uint64) error {
	msg, _ := appendFlowMod(nil, c.nextXid(), flowMod{Command: flowDelete, Cookie: cookie}) // a delete always encodes
	return c.ch.send(msg)
}

// Barrier blocks until the switch has applied everything sent before it as
// one table publish. It fails, and the switch applies none of it, if any
// of it was refused.
func (c *Controller) Barrier() error {
	_, err := c.request(typeBarrierRequest)
	return err
}

// FlowStats retrieves the per-entry counters of the switch.
func (c *Controller) FlowStats() ([]FlowStat, error) {
	reply, err := c.request(typeFlowStatsReq)
	if err != nil {
		return nil, err
	}
	return parseFlowStatsReply(reply.Body)
}

// deleteLen is the size of the FLOW_MOD that opens a commit: a delete by
// cookie, with no match and no actions.
const deleteLen = headerLen + flowModHeaderLen

// entryLenHint is the room NewEntries reserves per entry: a FLOW_MOD with
// an in-port and a VLAN match and two actions fits.
const entryLenHint = 64

// Entries is the entry set one Commit installs, in wire form: Add encodes
// each entry straight into a FLOW_MOD add of one buffer that starts with
// room for the commit's delete, so the controller builds no
// vswitch.FlowEntry and Commit writes the whole commit at once. The zero
// value is an empty set.
type Entries struct {
	buf []byte
	err error
}

// NewEntries returns an empty entry set sized for about n entries.
func NewEntries(n int) Entries {
	return Entries{buf: make([]byte, deleteLen, deleteLen+n*entryLenHint+headerLen)}
}

// Add appends one entry; it takes the cookie Commit names. An entry that
// cannot be encoded fails the Commit.
func (e *Entries) Add(priority int, match vswitch.Match, actions ...vswitch.Action) {
	if e.buf == nil {
		*e = NewEntries(1)
	}
	if e.err == nil {
		e.buf, e.err = appendFlowMod(e.buf, 0, flowMod{Command: flowAdd, Priority: uint16(priority), Match: match, Actions: actions})
	}
}

// Commit makes entries the switch's whole entry set under cookie, and
// consumes them. One write carries a FLOW_MOD deleting the cookie's
// entries, one adding each entry, and a BARRIER, every message under the
// barrier's xid; the switch applies them at the barrier as one table
// publish, or, if any is refused, applies none and Commit returns its
// error. Nil entries just delete.
func (c *Controller) Commit(cookie uint64, entries *Entries) error {
	var e Entries
	if entries != nil {
		e = *entries
	}
	if e.err != nil {
		return e.err
	}
	if e.buf == nil {
		e = NewEntries(0)
	}
	xid := c.nextXid()
	// The delete, which always encodes, overwrites the room reserved for
	// it; the adds follow.
	_, _ = appendFlowMod(e.buf[:0], xid, flowMod{Command: flowDelete, Cookie: cookie})
	b := e.buf
	for off := deleteLen; off < len(b); off += int(binary.BigEndian.Uint16(b[off+2:])) {
		binary.BigEndian.PutUint32(b[off+4:], xid)
		binary.BigEndian.PutUint64(b[off+headerLen+3:], cookie)
	}
	_, err := c.call(xid, appendHeader(b, typeBarrierRequest, xid))
	return err
}

// connChannel is a channel over a net.Conn to an agent's Run loop.
type connChannel struct {
	conn net.Conn
	hdr  [headerLen]byte // the receive loop's header buffer

	writeMu sync.Mutex

	// callMu keeps one request in flight, from its write to its reply:
	// the receive loop hands that reply over on reply, and timer bounds
	// the wait.
	callMu sync.Mutex
	timer  *time.Timer
	reply  chan message // closed when the receive loop ends

	mu      sync.Mutex
	waiting uint32 // the xid of the request in flight, 0 if none
	done    chan struct{}
	closed  bool
}

func (c *connChannel) shut() error {
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

// send writes one or more framed messages with a single write, so no
// other writer's message lands between them.
func (c *connChannel) send(msgs []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.conn.Write(msgs)
	return err
}

// readLoop hands the reply to the request in flight over; a message under
// any other xid is dropped.
func (c *connChannel) readLoop() {
	defer close(c.done)
	defer close(c.reply) // fails the request in flight and every later one
	for {
		m, err := readMessage(c.conn, &c.hdr, nil)
		if err != nil {
			return
		}
		c.mu.Lock()
		if m.Xid != 0 && m.Xid == c.waiting {
			c.waiting = 0
			select {
			case c.reply <- m: // always room: a call empties reply before it returns
			default:
			}
		}
		c.mu.Unlock()
	}
}

func (c *connChannel) call(xid uint32, req []byte) (message, error) {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return message{}, errors.New("openflow: controller closed")
	}
	c.waiting = xid
	c.mu.Unlock()
	c.timer.Reset(rpcTimeout)
	defer c.timer.Stop()
	err := c.send(req)
	if err == nil {
		select {
		case reply, ok := <-c.reply:
			if !ok {
				return message{}, errors.New("openflow: connection lost")
			}
			return reply, nil
		case <-c.timer.C:
			err = fmt.Errorf("openflow: rpc timeout for %v", msgType(req[len(req)-headerLen+1]))
		}
	}
	c.mu.Lock()
	c.waiting = 0
	select { // a reply that raced the failure
	case <-c.reply:
	default:
	}
	c.mu.Unlock()
	return message{}, err
}

// localChannel is a channel into a switch's applier that serves each
// delivery in the caller's goroutine, one at a time.
type localChannel struct {
	mu     sync.Mutex
	closed bool
	applier
}

func (l *localChannel) shut() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return nil
}

func (l *localChannel) send(msgs []byte) error {
	_, err := l.call(0, msgs)
	return err
}

// call splits msgs in place as an agent would read them and serves them in
// order; the reply to the last is the reply.
func (l *localChannel) call(_ uint32, msgs []byte) (reply message, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return message{}, errors.New("openflow: controller closed")
	}
	for len(msgs) > 0 && err == nil {
		var m message
		if m, msgs, err = splitMessage(msgs); err == nil {
			reply, _ = l.serve(m)
		}
	}
	return reply, err
}
