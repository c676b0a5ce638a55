package disagg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// DecodeConfig parameterizes a decode replica.
type DecodeConfig struct {
	// Addr is the wire listen address.
	Addr string
	// HTTPAddr is the health/metrics listen address; empty disables it.
	HTTPAddr string
	// NodeID names the node in handshakes; defaults to the wire address.
	NodeID string
	// Serve configures the wrapped continuous-batching runtime. Its
	// Spec/ModelSeed/Backend must match the prefill side, which the
	// handshake enforces.
	Serve serve.Config
	// MethodName is advertised in the handshake; defaults to "hack".
	MethodName string
	// DrainTimeout bounds the graceful Shutdown wait in Close and Drain
	// (default 30s).
	DrainTimeout time.Duration
	// FrameTimeout bounds each framed read inside a KV transfer and each
	// token write (default 10s) so a half-open router cannot wedge a
	// handler goroutine; the idle between-jobs read stays unbounded
	// because router connections are long-lived. Negative disables it.
	FrameTimeout time.Duration
}

// DecodeNode wraps a serve.Server behind the wire protocol: it adopts
// shipped KV caches, enters them into the continuous-batching decode
// loop via SubmitPrefilled, and streams tokens back. Remote requests
// batch with any locally-submitted ones.
type DecodeNode struct {
	cfg DecodeConfig
	rt  *serve.Server

	hello netsim.Hello
	ln    net.Listener
	http  *nodeHTTP

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closed  chan struct{}
	closeMu sync.Once
	drainMu sync.Once
	wg      sync.WaitGroup
}

// NewDecodeNode builds the serving runtime, binds the listeners, and
// starts accepting wire connections.
func NewDecodeNode(cfg DecodeConfig) (*DecodeNode, error) {
	if cfg.MethodName == "" {
		cfg.MethodName = "hack"
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
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
		return nil, fmt.Errorf("disagg: decode listen: %w", err)
	}
	d := &DecodeNode{cfg: cfg, rt: rt, ln: ln,
		conns: make(map[net.Conn]struct{}), closed: make(chan struct{})}
	if cfg.NodeID == "" {
		d.cfg.NodeID = ln.Addr().String()
	}
	spec := rt.Spec()
	d.hello = netsim.Hello{
		Role: "decode", NodeID: d.cfg.NodeID, Method: cfg.MethodName,
		ModelSeed: cfg.Serve.ModelSeed, SpecName: spec.Name, Vocab: spec.Vocab,
	}
	if cfg.HTTPAddr != "" {
		h, err := newNodeHTTP(cfg.HTTPAddr,
			func() any { return rt.Metrics() },
			func(w io.Writer) error { return rt.Metrics().WritePrometheus(w, "hackserved") },
			rt.Draining)
		if err != nil {
			ln.Close()
			rt.Shutdown(context.Background())
			return nil, err
		}
		d.http = h
		d.hello.HTTPAddr = h.Addr()
	}
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// Addr returns the node's wire address.
func (d *DecodeNode) Addr() string { return d.ln.Addr().String() }

// HTTPAddr returns the health/metrics address ("" when disabled).
func (d *DecodeNode) HTTPAddr() string {
	if d.http == nil {
		return ""
	}
	return d.http.Addr()
}

// Drain starts a graceful shutdown in the background: /healthz flips to
// 503 immediately (the runtime is draining), in-flight requests finish,
// and new wire submissions are refused with Kind "draining".
func (d *DecodeNode) Drain() {
	d.drainMu.Do(func() {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
			defer cancel()
			_ = d.rt.Shutdown(ctx)
		}()
	})
}

// Kill is the chaos path: it severs every wire connection and aborts
// the runtime immediately, like a process death. In-flight streams on
// the router side see a connection error and fail over.
func (d *DecodeNode) Kill() {
	d.closeMu.Do(func() { close(d.closed) })
	d.ln.Close()
	if d.http != nil {
		d.http.Close()
	}
	d.connMu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.connMu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: force-abort, don't drain
	_ = d.rt.Shutdown(ctx)
	d.wg.Wait()
}

// Close stops the listeners and shuts the runtime down.
func (d *DecodeNode) Close() error {
	d.closeMu.Do(func() { close(d.closed) })
	err := d.ln.Close()
	if d.http != nil {
		d.http.Close()
	}
	d.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	_ = d.rt.Shutdown(ctx)
	return err
}

func (d *DecodeNode) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			select {
			case <-d.closed:
				return
			default:
				continue
			}
		}
		d.connMu.Lock()
		d.conns[conn] = struct{}{}
		d.connMu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer func() {
				conn.Close()
				d.connMu.Lock()
				delete(d.conns, conn)
				d.connMu.Unlock()
			}()
			d.handleConn(conn)
		}()
	}
}

func (d *DecodeNode) checkPeer(h netsim.Hello) error {
	if h.Method != d.hello.Method || h.ModelSeed != d.hello.ModelSeed ||
		h.SpecName != d.hello.SpecName || h.Vocab != d.hello.Vocab {
		return fmt.Errorf("disagg: peer %s serves %s/%s seed %d, this node %s/%s seed %d",
			h.NodeID, h.Method, h.SpecName, h.ModelSeed,
			d.hello.Method, d.hello.SpecName, d.hello.ModelSeed)
	}
	return nil
}

// handleConn runs the responder handshake then serves decode jobs. Each
// connection carries one request at a time: MsgDecode, the KV frames,
// MsgTransferEnd, then the token stream back.
func (d *DecodeNode) handleConn(conn net.Conn) {
	_, err := netsim.AcceptHandshake(conn, d.hello, d.checkPeer)
	if err != nil {
		return
	}
	for {
		t, payload, err := netsim.ReadMessage(conn)
		if err != nil {
			return
		}
		switch t {
		case netsim.MsgPing:
			if err := netsim.WriteMessage(conn, netsim.MsgPong, nil); err != nil {
				return
			}
		case netsim.MsgDecode:
			var job DecodeJob
			if err := jsonUnmarshal(payload, &job); err != nil {
				_ = writeJSON(conn, netsim.MsgDone, DoneMsg{Err: err.Error(), Kind: "bad_request"})
				return
			}
			if err := d.runJob(conn, job); err != nil {
				_ = writeJSON(conn, netsim.MsgDone, DoneMsg{Err: err.Error(), Kind: doneKind(err)})
				return
			}
		default:
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
		// router could still serve through another replica.
		return "transfer"
	default:
		return "failed"
	}
}

// runJob collects the shipped KV frames, reconstructs the session, and
// streams the decode loop's tokens back over the connection.
func (d *DecodeNode) runJob(conn net.Conn, job DecodeJob) error {
	sess, firstTok, err := d.adoptCache(conn, job)
	if err != nil {
		return err
	}
	req := serve.Request{
		Prompt:       make([]int, job.PromptLen),
		MaxNewTokens: job.MaxNew,
		EOS:          job.EOS,
		Seed:         job.Seed,
	}
	st, err := d.rt.SubmitPrefilled(context.Background(), req, sess, firstTok)
	if err != nil {
		return err
	}
	n := 0
	for tok := range st.Tokens() {
		if err := writeJSONTimeout(conn, d.cfg.FrameTimeout, netsim.MsgToken, TokenMsg{Index: tok.Index, ID: tok.ID}); err != nil {
			return err
		}
		n++
	}
	if err := st.Err(); err != nil {
		return err
	}
	return writeJSON(conn, netsim.MsgDone, DoneMsg{Tokens: n})
}

// adoptCache reads the per-head KV frames until MsgTransferEnd and
// rebuilds the request's session: every (layer, head) slot must arrive
// exactly once, all frames must agree on the first token, and the
// backend must be a HACK instance (the only restorable kernel).
func (d *DecodeNode) adoptCache(conn net.Conn, job DecodeJob) (sess *model.Session, firstTok int, err error) {
	spec := d.rt.Spec()
	backend, err := d.rt.BackendFor(job.Seed)
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
		payload, err := readExpectTimeout(conn, d.cfg.FrameTimeout, netsim.MsgFrame)
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
	if _, err := readExpectTimeout(conn, d.cfg.FrameTimeout, netsim.MsgTransferEnd); err != nil {
		return nil, 0, err
	}
	s, err := d.rt.Model().RestoreSession(backend, heads)
	if err != nil {
		return nil, 0, err
	}
	return s, first, nil
}
