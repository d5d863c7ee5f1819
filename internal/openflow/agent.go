package openflow

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/vswitch"
)

// Agent is the switch-side endpoint of the control channel: it binds one
// vswitch.Switch to one net.Conn and serves the controller's requests until
// the connection closes or Stop is called.
type Agent struct {
	sw   *vswitch.Switch
	conn net.Conn

	stopped chan struct{}
	once    sync.Once
}

// NewAgent binds sw to conn. Call Run to serve.
func NewAgent(sw *vswitch.Switch, conn net.Conn) *Agent {
	return &Agent{sw: sw, conn: conn, stopped: make(chan struct{})}
}

// Run serves the control channel until the peer disconnects or Stop is
// called. The agent does not send HELLO proactively: over fully synchronous
// transports (net.Pipe) two peers writing first would deadlock. It answers
// the controller's HELLO instead.
func (a *Agent) Run() error {
	for {
		m, err := readMessage(a.conn)
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
		if err := a.handle(m); err != nil {
			return err
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

func (a *Agent) sendError(xid uint32, code uint16, detail string) error {
	return writeMessage(a.conn, message{Type: typeError, Xid: xid, Body: encodeError(code, detail)})
}

func (a *Agent) handle(m message) error {
	switch m.Type {
	case typeHello:
		return writeMessage(a.conn, message{Type: typeHello, Xid: m.Xid})
	case typeFlowMod:
		fm, err := parseFlowMod(m.Body)
		if err != nil {
			return a.sendError(m.Xid, errCodeBadRequest, err.Error())
		}
		switch fm.Command {
		case flowAdd:
			entry := &vswitch.FlowEntry{
				Priority: int(fm.Priority),
				Cookie:   fm.Cookie,
				Match:    fm.Match,
				Actions:  fm.Actions,
			}
			if err := a.sw.AddFlow(entry); err != nil {
				return a.sendError(m.Xid, errCodeFlowMod, err.Error())
			}
		case flowDelete:
			a.sw.DeleteFlows(fm.Cookie)
		default:
			return a.sendError(m.Xid, errCodeFlowMod, fmt.Sprintf("unknown command %d", fm.Command))
		}
		return nil
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
		return writeMessage(a.conn, message{Type: typeFlowStatsReply, Xid: m.Xid, Body: encodeFlowStatsReply(stats)})
	case typeBarrierRequest:
		return writeMessage(a.conn, message{Type: typeBarrierReply, Xid: m.Xid})
	default:
		return a.sendError(m.Xid, errCodeBadRequest, fmt.Sprintf("unexpected %v", m.Type))
	}
}
