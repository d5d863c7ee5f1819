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

	writeMu sync.Mutex
	stopped chan struct{}
	once    sync.Once
}

// NewAgent binds sw to conn. Call Run to serve.
func NewAgent(sw *vswitch.Switch, conn net.Conn) *Agent {
	return &Agent{sw: sw, conn: conn, stopped: make(chan struct{})}
}

// Run serves the control channel until the peer disconnects or Stop is
// called. It installs itself as the switch's packet-in handler for the
// duration, forwarding punted frames to the controller.
// The agent does not send HELLO proactively: over fully synchronous
// transports (net.Pipe) two peers writing first would deadlock. It answers
// the controller's HELLO instead.
func (a *Agent) Run() error {
	a.sw.SetPacketInHandler(func(pi vswitch.PacketIn) {
		body := EncodePacketIn(PacketIn{
			InPort:  pi.InPort,
			TableID: uint8(pi.TableID),
			Reason:  uint8(pi.Reason),
			Data:    pi.Data,
		})
		_ = a.write(Message{Type: TypePacketIn, Body: body})
	})
	defer a.sw.SetPacketInHandler(nil)
	for {
		m, err := ReadMessage(a.conn)
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

func (a *Agent) write(m Message) error {
	a.writeMu.Lock()
	defer a.writeMu.Unlock()
	return WriteMessage(a.conn, m)
}

func (a *Agent) sendError(xid uint32, code uint16, detail string) error {
	return a.write(Message{Type: TypeError, Xid: xid, Body: EncodeError(code, detail)})
}

func (a *Agent) handle(m Message) error {
	switch m.Type {
	case TypeHello:
		return a.write(Message{Type: TypeHello, Xid: m.Xid})
	case TypeEchoRequest:
		return a.write(Message{Type: TypeEchoReply, Xid: m.Xid, Body: m.Body})
	case TypeFeaturesRequest:
		reply := FeaturesReply{
			DPID:    a.sw.DPID(),
			NTables: uint8(a.sw.NumTables()),
			Ports:   a.sw.Ports(),
		}
		return a.write(Message{Type: TypeFeaturesReply, Xid: m.Xid, Body: EncodeFeaturesReply(reply)})
	case TypeFlowMod:
		fm, err := ParseFlowMod(m.Body)
		if err != nil {
			return a.sendError(m.Xid, ErrCodeBadRequest, err.Error())
		}
		switch fm.Command {
		case FlowAdd:
			entry := &vswitch.FlowEntry{
				Table:    int(fm.TableID),
				Priority: int(fm.Priority),
				Cookie:   fm.Cookie,
				Match:    fm.Match,
				Actions:  fm.Actions,
			}
			if err := a.sw.AddFlow(entry); err != nil {
				return a.sendError(m.Xid, ErrCodeFlowMod, err.Error())
			}
		case FlowDelete:
			a.sw.DeleteFlows(fm.Cookie)
		case FlowDeleteAll:
			a.sw.DeleteAllFlows()
		default:
			return a.sendError(m.Xid, ErrCodeFlowMod, fmt.Sprintf("unknown command %d", fm.Command))
		}
		return nil
	case TypePacketOut:
		po, err := ParsePacketOut(m.Body)
		if err != nil {
			return a.sendError(m.Xid, ErrCodeBadRequest, err.Error())
		}
		if po.OutPort != 0 {
			a.sw.Output(po.OutPort, po.Data)
		} else {
			a.sw.Inject(po.InPort, po.Data)
		}
		return nil
	case TypeFlowStatsReq:
		flows := a.sw.Flows()
		stats := make([]FlowStat, len(flows))
		for i, f := range flows {
			p, b := f.Stats()
			stats[i] = FlowStat{
				TableID:  uint8(f.Table),
				Priority: uint16(f.Priority),
				Cookie:   f.Cookie,
				Packets:  p,
				Bytes:    b,
			}
		}
		return a.write(Message{Type: TypeFlowStatsReply, Xid: m.Xid, Body: EncodeFlowStatsReply(stats)})
	case TypeBarrierRequest:
		return a.write(Message{Type: TypeBarrierReply, Xid: m.Xid})
	default:
		return a.sendError(m.Xid, ErrCodeBadRequest, fmt.Sprintf("unexpected %v", m.Type))
	}
}
