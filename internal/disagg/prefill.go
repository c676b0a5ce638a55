package disagg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// PrefillConfig parameterizes a prefill node.
type PrefillConfig struct {
	// Addr is the wire listen address ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Addr string
	// HTTPAddr is the health/metrics listen address; empty disables the
	// HTTP endpoint.
	HTTPAddr string
	// NodeID names the node in handshakes; defaults to the wire address.
	NodeID string
	// Spec/ModelSeed build the numeric transformer — they must match the
	// decode side exactly, which the handshake enforces.
	Spec      model.Spec
	ModelSeed int64
	// Backend builds the per-request attention backend from the request
	// seed; nil selects the paper's shipping HACK configuration. Heads
	// must implement attention.WireExporter (HACK with RQE); others are
	// refused per request.
	Backend serve.BackendFactory
	// MethodName is advertised in the handshake so mismatched deployments
	// refuse to pair; defaults to "hack".
	MethodName string
	// MaxConcurrent bounds simultaneous prefill executions (default 2).
	MaxConcurrent int
	// FrameTimeout bounds each KV frame write (default 10s) so a
	// half-open router cannot wedge a prefill handler goroutine; the
	// idle between-jobs read stays unbounded. Negative disables it.
	FrameTimeout time.Duration
}

// PrefillStats counts a prefill node's work.
type PrefillStats struct {
	Prefills   int64 `json:"prefills"`
	Failures   int64 `json:"failures"`
	FramesSent int64 `json:"frames_sent"`
	KVBytes    int64 `json:"kv_bytes_sent"`
}

// PrefillNode executes prefills and ships quantized KV caches. Create
// with NewPrefillNode (which starts listening) and stop with Close.
type PrefillNode struct {
	cfg     PrefillConfig
	m       *model.Transformer
	backend serve.BackendFactory
	hello   netsim.Hello

	ln   net.Listener
	http *nodeHTTP
	sem  chan struct{}

	prefills atomic.Int64
	failures atomic.Int64
	frames   atomic.Int64
	kvBytes  atomic.Int64

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// NewPrefillNode builds the transformer, binds the listeners, and starts
// accepting connections.
func NewPrefillNode(cfg PrefillConfig) (*PrefillNode, error) {
	if cfg.Spec.Layers == 0 && cfg.Spec.Hidden == 0 {
		cfg.Spec = model.Toy()
	}
	if cfg.Backend == nil {
		cfg.Backend = func(seed int64) (attention.Backend, error) {
			return attention.NewHACK(attention.DefaultHACKConfig(seed))
		}
	}
	if cfg.MethodName == "" {
		cfg.MethodName = "hack"
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = defaultFrameTimeout
	}
	m, err := model.NewTransformer(cfg.Spec, cfg.ModelSeed)
	if err != nil {
		return nil, fmt.Errorf("disagg: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("disagg: prefill listen: %w", err)
	}
	p := &PrefillNode{
		cfg: cfg, m: m, backend: cfg.Backend,
		ln:     ln,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		closed: make(chan struct{}),
	}
	if cfg.NodeID == "" {
		cfg.NodeID = ln.Addr().String()
		p.cfg.NodeID = cfg.NodeID
	}
	p.hello = netsim.Hello{
		Role: "prefill", NodeID: cfg.NodeID, Method: cfg.MethodName,
		ModelSeed: cfg.ModelSeed, SpecName: cfg.Spec.Name, Vocab: cfg.Spec.Vocab,
	}
	if cfg.HTTPAddr != "" {
		h, err := newNodeHTTP(cfg.HTTPAddr, func() any { return p.Stats() },
			p.writeProm, func() bool { return false })
		if err != nil {
			ln.Close()
			return nil, err
		}
		p.http = h
		p.hello.HTTPAddr = h.Addr()
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the node's wire address.
func (p *PrefillNode) Addr() string { return p.ln.Addr().String() }

// HTTPAddr returns the health/metrics address ("" when disabled).
func (p *PrefillNode) HTTPAddr() string {
	if p.http == nil {
		return ""
	}
	return p.http.Addr()
}

// Stats returns the node's work counters.
func (p *PrefillNode) Stats() PrefillStats {
	return PrefillStats{
		Prefills:   p.prefills.Load(),
		Failures:   p.failures.Load(),
		FramesSent: p.frames.Load(),
		KVBytes:    p.kvBytes.Load(),
	}
}

// writeProm renders the node's counters in Prometheus text format.
func (p *PrefillNode) writeProm(w io.Writer) error {
	st := p.Stats()
	var err error
	emit := func(name, help string, v int64) {
		if err == nil {
			_, err = fmt.Fprintf(w,
				"# HELP hackserved_prefill_%s %s\n# TYPE hackserved_prefill_%s counter\nhackserved_prefill_%s %d\n",
				name, help, name, name, v)
		}
	}
	emit("prefills_total", "Prefills executed.", st.Prefills)
	emit("failures_total", "Prefill jobs that failed.", st.Failures)
	emit("frames_sent_total", "KV frames shipped.", st.FramesSent)
	emit("kv_bytes_sent_total", "Framed KV bytes shipped.", st.KVBytes)
	return err
}

// Close stops the listeners and waits for in-flight connections.
func (p *PrefillNode) Close() error {
	p.closeMu.Do(func() { close(p.closed) })
	err := p.ln.Close()
	if p.http != nil {
		p.http.Close()
	}
	p.wg.Wait()
	return err
}

func (p *PrefillNode) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.closed:
				return
			default:
				continue
			}
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer conn.Close()
			p.handleConn(conn)
		}()
	}
}

// handleConn runs the responder handshake then serves prefill jobs until
// the peer disconnects.
func (p *PrefillNode) handleConn(conn net.Conn) {
	_, err := netsim.AcceptHandshake(conn, p.hello, p.checkPeer)
	if err != nil {
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
		case netsim.MsgPrefill:
			var job PrefillJob
			if err := unmarshalStrictPrompt(payload, &job); err != nil {
				p.failures.Add(1)
				_ = writeJSON(conn, netsim.MsgDone, DoneMsg{Err: err.Error(), Kind: "bad_request"})
				return
			}
			if err := p.runJob(conn, job); err != nil {
				p.failures.Add(1)
				// Best-effort error report; the conn may already be dead.
				_ = writeJSON(conn, netsim.MsgDone, DoneMsg{Err: err.Error(), Kind: "failed"})
				return
			}
		default:
			return
		}
	}
}

// checkPeer enforces deployment compatibility at connect time.
func (p *PrefillNode) checkPeer(h netsim.Hello) error {
	if h.Method != p.hello.Method || h.ModelSeed != p.hello.ModelSeed ||
		h.SpecName != p.hello.SpecName || h.Vocab != p.hello.Vocab {
		return fmt.Errorf("disagg: peer %s serves %s/%s seed %d, this node %s/%s seed %d",
			h.NodeID, h.Method, h.SpecName, h.ModelSeed,
			p.hello.Method, p.hello.SpecName, p.hello.ModelSeed)
	}
	return nil
}

// runJob executes one prefill and streams the per-head KV frames,
// terminated by MsgTransferEnd.
func (p *PrefillNode) runJob(conn net.Conn, job PrefillJob) error {
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-p.closed:
		return errors.New("disagg: prefill node closing")
	}
	for i, tok := range job.Prompt {
		if tok < 0 || tok >= p.cfg.Spec.Vocab {
			return fmt.Errorf("disagg: prompt token %d at %d outside vocab [0, %d)", tok, i, p.cfg.Spec.Vocab)
		}
	}
	backend, err := p.backend(job.Seed)
	if err != nil {
		return err
	}
	sess, err := p.m.NewSession(backend)
	if err != nil {
		return err
	}
	firstTok, err := sess.Prefill(job.Prompt)
	if err != nil {
		return err
	}
	p.prefills.Add(1)

	for l := 0; l < p.cfg.Spec.Layers; l++ {
		for h := 0; h < p.cfg.Spec.Heads; h++ {
			exp, ok := sess.Head(l, h).(attention.WireExporter)
			if !ok {
				return fmt.Errorf("disagg: backend %s does not export its cache", backend.Name())
			}
			k, v, tail, _, err := exp.ExportWire()
			if err != nil {
				return err
			}
			fr, err := netsim.FrameFromTensors(job.RequestID, l, h, firstTok, k, v, tail.Data)
			if err != nil {
				return err
			}
			var buf frameBuffer
			if _, err := fr.WriteTo(&buf); err != nil {
				return err
			}
			if err := netsim.WriteMessageTimeout(conn, p.cfg.FrameTimeout, netsim.MsgFrame, buf.b); err != nil {
				return err
			}
			p.frames.Add(1)
			p.kvBytes.Add(int64(len(buf.b)))
		}
	}
	return netsim.WriteMessageTimeout(conn, p.cfg.FrameTimeout, netsim.MsgTransferEnd, nil)
}

// frameBuffer is a minimal io.Writer collecting a frame's bytes.
type frameBuffer struct{ b []byte }

func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// unmarshalStrictPrompt decodes a PrefillJob and validates basics.
func unmarshalStrictPrompt(payload []byte, job *PrefillJob) error {
	if err := jsonUnmarshal(payload, job); err != nil {
		return err
	}
	if len(job.Prompt) == 0 {
		return errors.New("disagg: empty prompt")
	}
	return nil
}

// jsonUnmarshal is split out for testability of corrupt payloads.
func jsonUnmarshal(payload []byte, v any) error {
	return json.Unmarshal(payload, v)
}
