package openflow

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/vswitch"
)

// Agent is the switch-side endpoint of the control channel over a
// net.Conn: NewAgent binds it to one, and Run serves it until it closes or
// Stop is called.
type Agent struct {
	applier
	conn net.Conn
	// in buffers reads, so a commit written at once is read at once: over
	// a net.Pipe every read is a handoff between goroutines.
	in  *bufio.Reader
	hdr [headerLen]byte // read header
	out [headerLen]byte // a reply without a body
	// body is reused for every message read: the decoders copy every field
	// out of it.
	body []byte

	stopped chan struct{}
	once    sync.Once
}

// applier is what serves one vswitch.Switch, whatever carries the
// messages to it: an Agent's connection, or a Local controller's call.
type applier struct {
	sw *vswitch.Switch
	// The FLOW_MODs since the last barrier, folded in order: applying del
	// (the cookies to delete) and then add is applying them one by one.
	// err is the first refusal, which fails the commit.
	del []uint64
	add []*vswitch.FlowEntry
	err error
}

// readBufLen sizes the agent's read buffer: a typical commit (a graph's
// rules, an endpoint's pair of entries) fits.
const readBufLen = 512

// NewAgent binds sw to conn. Call Run to serve.
func NewAgent(sw *vswitch.Switch, conn net.Conn) *Agent {
	return &Agent{applier: applier{sw: sw}, conn: conn, in: bufio.NewReaderSize(conn, readBufLen), stopped: make(chan struct{})}
}

// Run serves the control channel until the peer disconnects or Stop is
// called. The agent does not send HELLO proactively: over fully synchronous
// transports (net.Pipe) two peers writing first would deadlock. It answers
// the controller's HELLO instead.
func (a *Agent) Run() error {
	for {
		m, err := readMessage(a.in, &a.hdr, a.body)
		if cap(m.Body) > cap(a.body) {
			a.body = m.Body
		}
		if err != nil {
			select {
			case <-a.stopped:
				return nil
			default:
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if reply, ok := a.serve(m); ok {
			if err := a.write(reply); err != nil {
				return err
			}
		}
	}
}

// Stop closes the control connection, terminating Run.
func (a *Agent) Stop() {
	a.once.Do(func() {
		close(a.stopped)
		_ = a.conn.Close()
	})
}

// write sends reply: one without a body from the agent's own buffer.
func (a *Agent) write(reply message) error {
	if len(reply.Body) > 0 {
		return writeMessage(a.conn, reply)
	}
	_, err := a.conn.Write(appendHeader(a.out[:0], reply.Type, reply.Xid))
	return err
}

// serve handles one message and returns its reply; a FLOW_MOD has none.
func (a *applier) serve(m message) (reply message, ok bool) {
	switch m.Type {
	case typeHello:
		return message{Type: typeHello, Xid: m.Xid}, true
	case typeFlowMod:
		if a.err == nil {
			a.err = a.stage(m.Body)
		}
		return message{}, false
	case typeFlowStatsReq:
		flows := a.sw.Flows()
		stats := make([]FlowStat, len(flows))
		for i, f := range flows {
			p, b := f.Stats()
			stats[i] = FlowStat{
				Priority: uint16(f.Priority),
				Cookie:   f.Cookie,
				Packets:  p,
				Bytes:    b,
			}
		}
		return message{Type: typeFlowStatsReply, Xid: m.Xid, Body: encodeFlowStatsReply(stats)}, true
	case typeBarrierRequest:
		if err := a.commit(); err != nil {
			return message{Type: typeError, Xid: m.Xid, Body: encodeError(errCodeFlowMod, err.Error())}, true
		}
		return message{Type: typeBarrierReply, Xid: m.Xid}, true
	default:
		return message{Type: typeError, Xid: m.Xid, Body: encodeError(errCodeBadRequest, fmt.Sprintf("unexpected %v", m.Type))}, true
	}
}

// stage folds one FLOW_MOD into the next commit: an add joins the staged
// entries; a delete by cookie drops the staged entries under the cookie and
// marks it for deletion from the table.
func (a *applier) stage(body []byte) error {
	fm, err := parseFlowMod(body)
	if err != nil {
		return err
	}
	switch fm.Command {
	case flowAdd:
		a.add = append(a.add, &vswitch.FlowEntry{
			Priority: int(fm.Priority),
			Cookie:   fm.Cookie,
			Match:    fm.Match,
			Actions:  fm.Actions,
		})
	case flowDelete:
		a.add = slices.DeleteFunc(a.add, func(e *vswitch.FlowEntry) bool { return e.Cookie == fm.Cookie })
		a.del = append(a.del, fm.Cookie)
	default:
		return fmt.Errorf("openflow: unknown FLOW_MOD command %d", fm.Command)
	}
	return nil
}

// commit applies what was staged since the last barrier as one validated
// table publish, or nothing if any of it was refused, and starts the next
// commit empty.
func (a *applier) commit() error {
	err := a.err
	if err == nil {
		_, err = a.sw.CommitFlows(a.del, a.add)
	}
	clear(a.add) // the table holds the entries now; the applier keeps none alive
	a.del, a.add, a.err = a.del[:0], a.add[:0], nil
	return err
}
