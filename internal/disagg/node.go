package disagg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/metrics"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// NodeConfig parameterizes a node.
type NodeConfig struct {
	// Addr is the wire listen address ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Addr string
	// HTTPAddr is the health/metrics listen address; empty disables it.
	HTTPAddr string
	// NodeID names the node in handshakes; defaults to the wire address.
	NodeID string
	// Role labels the node in handshakes ("prefill" or "decode"; default
	// "decode"). It changes nothing else: every node answers both jobs.
	Role string
	// Serve configures the wrapped serving runtime: its admission
	// queue, prefill workers and prefix tier run prefill jobs, and its
	// continuous-batching loop runs decode jobs. Spec/ModelSeed/Backend
	// must match every peer, which the handshake enforces.
	Serve serve.Config
	// MethodName is advertised in the handshake; defaults to "hack".
	MethodName string
	// FrameTimeout bounds each KV frame read or write inside a transfer
	// and each token write (default 10s) so a half-open router cannot
	// wedge a handler goroutine; the idle between-jobs read stays
	// unbounded because router connections are long-lived. Negative
	// disables it.
	FrameTimeout time.Duration
}

// NodeStats is a node's /metrics body: the runtime's snapshot plus the
// wire counters — prefill jobs run, wire jobs failed, and the KV frames
// and framed bytes shipped.
type NodeStats struct {
	serve.Snapshot
	Prefills   int64 `json:"prefills"`
	Failures   int64 `json:"failures"`
	FramesSent int64 `json:"frames_sent"`
	KVBytes    int64 `json:"kv_bytes_sent"`
}

// drainTimeout bounds the graceful Shutdown wait in Close and Drain.
const drainTimeout = 30 * time.Second

// Node wraps a serve.Server behind the wire protocol. A prefill job
// (MsgPrefill) runs through the runtime's admission queue, prefill
// workers and prefix tier, and the node ships the session's quantized
// KV cache as per-head frames. A decode job (MsgDecode) adopts a
// shipped cache, enters it into the continuous-batching decode loop via
// SubmitPrefilled, and streams the tokens back.
type Node struct {
	cfg   NodeConfig
	rt    *serve.Server
	hello netsim.Hello
	ln    net.Listener
	http  *nodeHTTP

	prefills atomic.Int64
	failures atomic.Int64
	frames   atomic.Int64
	kvBytes  atomic.Int64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closed  chan struct{}
	closeMu sync.Once
	drainMu sync.Once
	wg      sync.WaitGroup
}

// NewNode builds the serving runtime, binds the listeners, and starts
// accepting wire connections.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Role == "" {
		cfg.Role = "decode"
	}
	if cfg.MethodName == "" {
		cfg.MethodName = "hack"
	}
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = defaultFrameTimeout
	}
	rt, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, fmt.Errorf("disagg: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		rt.Shutdown(context.Background())
		return nil, fmt.Errorf("disagg: %s listen: %w", cfg.Role, err)
	}
	n := &Node{cfg: cfg, rt: rt, ln: ln,
		conns: make(map[net.Conn]struct{}), closed: make(chan struct{})}
	if cfg.NodeID == "" {
		n.cfg.NodeID = ln.Addr().String()
	}
	spec := rt.Spec()
	n.hello = netsim.Hello{
		Role: cfg.Role, NodeID: n.cfg.NodeID, Method: cfg.MethodName,
		ModelSeed: cfg.Serve.ModelSeed, SpecName: spec.Name, Vocab: spec.Vocab,
	}
	if cfg.HTTPAddr != "" {
		h, err := newNodeHTTP(cfg.HTTPAddr, func() any { return n.Stats() }, n.writeProm, rt.Draining)
		if err != nil {
			ln.Close()
			rt.Shutdown(context.Background())
			return nil, err
		}
		n.http = h
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's wire address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// HTTPAddr returns the health/metrics address ("" when disabled).
func (n *Node) HTTPAddr() string {
	if n.http == nil {
		return ""
	}
	return n.http.Addr()
}

// Stats returns the runtime snapshot and the wire counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Snapshot:   n.rt.Metrics(),
		Prefills:   n.prefills.Load(),
		Failures:   n.failures.Load(),
		FramesSent: n.frames.Load(),
		KVBytes:    n.kvBytes.Load(),
	}
}

// writeProm renders the runtime snapshot and the wire counters in
// Prometheus text format.
func (n *Node) writeProm(w io.Writer) error {
	st := n.Stats()
	if err := st.Snapshot.WritePrometheus(w, "hackserved"); err != nil {
		return err
	}
	p := metrics.NewProm(w)
	p.Counter("hackserved_prefill_prefills_total", "Prefill jobs executed.", st.Prefills)
	p.Counter("hackserved_prefill_failures_total", "Wire jobs that failed.", st.Failures)
	p.Counter("hackserved_prefill_frames_sent_total", "KV frames shipped.", st.FramesSent)
	p.Counter("hackserved_prefill_kv_bytes_sent_total", "Framed KV bytes shipped.", st.KVBytes)
	return p.Err()
}

// Drain starts a graceful shutdown in the background: the runtime is
// draining at once, so /healthz answers 503 and every new connection's
// Hello says Draining; in-flight requests finish, and new wire jobs are
// refused with Kind "draining".
func (n *Node) Drain() {
	n.drainMu.Do(func() {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			_ = n.rt.Shutdown(ctx)
		}()
	})
}

// Kill is the chaos path: it severs every wire connection and aborts
// the runtime immediately, like a process death. In-flight streams on
// the router side see a connection error and fail over.
func (n *Node) Kill() {
	n.closeMu.Do(func() { close(n.closed) })
	n.ln.Close()
	if n.http != nil {
		n.http.Close()
	}
	n.connMu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: force-abort, don't drain
	_ = n.rt.Shutdown(ctx)
	n.wg.Wait()
}

// Close stops the listeners and shuts the runtime down.
func (n *Node) Close() error {
	n.closeMu.Do(func() { close(n.closed) })
	err := n.ln.Close()
	if n.http != nil {
		n.http.Close()
	}
	n.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	_ = n.rt.Shutdown(ctx)
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue
			}
		}
		n.connMu.Lock()
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				conn.Close()
				n.connMu.Lock()
				delete(n.conns, conn)
				n.connMu.Unlock()
			}()
			n.handleConn(conn)
		}()
	}
}

// checkPeer enforces deployment compatibility at connect time.
func (n *Node) checkPeer(h netsim.Hello) error {
	if h.Method != n.hello.Method || h.ModelSeed != n.hello.ModelSeed ||
		h.SpecName != n.hello.SpecName || h.Vocab != n.hello.Vocab {
		return fmt.Errorf("disagg: peer %s serves %s/%s seed %d, this node %s/%s seed %d",
			h.NodeID, h.Method, h.SpecName, h.ModelSeed,
			n.hello.Method, n.hello.SpecName, n.hello.ModelSeed)
	}
	return nil
}

// handleConn runs the responder handshake, whose Hello carries whether
// the runtime is draining, then serves jobs, one at a time, until the
// peer disconnects. A prefill job is MsgPrefill, then
// the KV frames and MsgTransferEnd back; a decode job is MsgDecode, the
// KV frames and MsgTransferEnd, then the token stream back. A failed
// job is answered with MsgDone and ends the connection.
func (n *Node) handleConn(conn net.Conn) {
	hello := n.hello
	hello.Draining = n.rt.Draining()
	if _, err := netsim.AcceptHandshake(conn, hello, n.checkPeer); err != nil {
		return
	}
	for {
		t, payload, err := netsim.ReadMessage(conn)
		if err != nil {
			return // EOF or broken peer: connection is per-session state only
		}
		switch t {
		case netsim.MsgPing:
			if err := netsim.WriteMessage(conn, netsim.MsgPong, nil); err != nil {
				return
			}
			continue
		case netsim.MsgPrefill:
			var job PrefillJob
			if err = jsonUnmarshal(payload, &job); err == nil {
				err = n.runPrefill(conn, job)
			}
		case netsim.MsgDecode:
			var job DecodeJob
			if err = jsonUnmarshal(payload, &job); err == nil {
				err = n.runDecode(conn, job)
			}
		default:
			return
		}
		if err != nil {
			n.failures.Add(1)
			// Best-effort error report; the conn may already be dead.
			_ = writeJSON(conn, netsim.MsgDone, DoneMsg{Err: err.Error(), Kind: doneKind(err)})
			return
		}
	}
}

// doneKind classifies a terminal error so the router can map it back to
// a typed error instead of a string.
func doneKind(err error) string {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrDrained):
		return "draining"
	case errors.Is(err, netsim.ErrChecksum), errors.Is(err, netsim.ErrFrameCorrupt),
		errors.Is(err, netsim.ErrWireTimeout),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		// The KV transfer itself broke — corrupt frames, a missed frame
		// deadline, a severed link. The request is fine, the link is not;
		// reporting "failed" here would terminally fail a request the
		// router could still serve through another node.
		return "transfer"
	default:
		return "failed"
	}
}

// runPrefill prefills one request on the runtime's prefill workers and
// streams the per-head KV frames, terminated by MsgTransferEnd.
func (n *Node) runPrefill(conn net.Conn, job PrefillJob) error {
	sess, firstTok, err := n.rt.Prefill(context.Background(), serve.Request{Prompt: job.Prompt, Seed: job.Seed})
	if err != nil {
		return err
	}
	n.prefills.Add(1)
	spec := n.rt.Spec()
	for l := 0; l < spec.Layers; l++ {
		for h := 0; h < spec.Heads; h++ {
			exp, ok := sess.Head(l, h).(attention.WireExporter)
			if !ok {
				return fmt.Errorf("disagg: attention head (%d,%d) does not export its cache", l, h)
			}
			k, v, tail, _, err := exp.ExportWire()
			if err != nil {
				return err
			}
			fr, err := netsim.FrameFromTensors(job.RequestID, l, h, firstTok, k, v, tail.Data)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if _, err := fr.WriteTo(&buf); err != nil {
				return err
			}
			if err := netsim.WriteMessageTimeout(conn, n.cfg.FrameTimeout, netsim.MsgFrame, buf.Bytes()); err != nil {
				return err
			}
			n.frames.Add(1)
			n.kvBytes.Add(int64(buf.Len()))
		}
	}
	return netsim.WriteMessageTimeout(conn, n.cfg.FrameTimeout, netsim.MsgTransferEnd, nil)
}

// runDecode collects the shipped KV frames, reconstructs the session,
// and streams the decode loop's tokens back over the connection. The
// request's context ends with the job, so a token write that fails
// because the router hung up also stops the runtime decoding for it.
func (n *Node) runDecode(conn net.Conn, job DecodeJob) error {
	sess, firstTok, err := n.adoptCache(conn, job)
	if err != nil {
		return err
	}
	req := serve.Request{
		Prompt:       make([]int, job.PromptLen),
		MaxNewTokens: job.MaxNew,
		EOS:          job.EOS,
		Seed:         job.Seed,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := n.rt.SubmitPrefilled(ctx, req, sess, firstTok)
	if err != nil {
		return err
	}
	sent := 0
	for tok := range st.Tokens() {
		if err := writeJSONTimeout(conn, n.cfg.FrameTimeout, netsim.MsgToken, tok); err != nil {
			return err
		}
		sent++
	}
	if err := st.Err(); err != nil {
		return err
	}
	return writeJSON(conn, netsim.MsgDone, DoneMsg{Tokens: sent})
}

// adoptCache reads the per-head KV frames until MsgTransferEnd and
// rebuilds the request's session: every (layer, head) slot must arrive
// exactly once, all frames must agree on the first token, and the
// backend must be a HACK instance (the only restorable kernel).
func (n *Node) adoptCache(conn net.Conn, job DecodeJob) (sess *model.Session, firstTok int, err error) {
	spec := n.rt.Spec()
	backend, err := n.rt.BackendFor(job.Seed)
	if err != nil {
		return nil, 0, err
	}
	hb, ok := backend.(*attention.HACKBackend)
	if !ok {
		return nil, 0, fmt.Errorf("disagg: backend %s cannot adopt a shipped cache", backend.Name())
	}
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		heads[l] = make([]attention.Head, spec.Heads)
	}
	got, want := 0, spec.Layers*spec.Heads
	first := -1
	for got < want {
		payload, err := readExpectTimeout(conn, n.cfg.FrameTimeout, netsim.MsgFrame)
		if err != nil {
			return nil, 0, err
		}
		var fr netsim.KVFrame
		if _, err := fr.ReadFrom(bytes.NewReader(payload)); err != nil {
			return nil, 0, err
		}
		if fr.RequestID != job.RequestID {
			return nil, 0, fmt.Errorf("disagg: frame for request %d inside transfer %d", fr.RequestID, job.RequestID)
		}
		l, h := int(fr.Layer), int(fr.Head)
		if l >= spec.Layers || h >= spec.Heads {
			return nil, 0, fmt.Errorf("disagg: frame (%d,%d) outside %d×%d grid", l, h, spec.Layers, spec.Heads)
		}
		if heads[l][h] != nil {
			return nil, 0, fmt.Errorf("disagg: duplicate frame for head (%d,%d)", l, h)
		}
		if first < 0 {
			first = int(fr.FirstToken)
		} else if int(fr.FirstToken) != first {
			return nil, 0, fmt.Errorf("disagg: frames disagree on first token (%d vs %d)", fr.FirstToken, first)
		}
		k, v, tail, err := fr.Tensors()
		if err != nil {
			return nil, 0, err
		}
		heads[l][h], err = hb.RestoreHead(spec.HeadDim, k, v, tail, fr.RNGDraws)
		if err != nil {
			return nil, 0, err
		}
		got++
	}
	if _, err := readExpectTimeout(conn, n.cfg.FrameTimeout, netsim.MsgTransferEnd); err != nil {
		return nil, 0, err
	}
	s, err := n.rt.Model().RestoreSession(backend, heads)
	if err != nil {
		return nil, 0, err
	}
	return s, first, nil
}

// jsonUnmarshal is split out for testability of corrupt payloads.
func jsonUnmarshal(payload []byte, v any) error {
	return json.Unmarshal(payload, v)
}
