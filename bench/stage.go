package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"

	"github.com/hackkv/hack/internal/api"
	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/cluster"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/serve"
)

// stager performs requests itself, stage by stage, through the layers'
// public functions — what the serving runtime does for one unloaded
// request — and records a span around each call. Comparing the sum of
// its stages with the served, unloaded JCT of the same requests
// (trace.reconstruction_gap) says how much of a request the stages
// account for.
type stager struct {
	method string
	rec    *spanRecorder

	m       *model.Transformer
	tok     *api.Tokenizer
	backend serve.BackendFactory

	// Fleet: the shaped loopback connection a cache crosses, and how
	// many times it crosses it.
	wire      *stagedWire
	crossings int

	// Prefix workload: the tier's in-process backend, sized like the
	// deployment's.
	prefix     serve.PrefixCacheBackend
	pageTokens int
}

// newStager builds a stager for one method. crossings is the measured
// number of times a cache crosses the wire (fleet only); prefixBytes
// the measured size of one cached prefix (prefix workload only).
func newStager(w Workload, method string, rec *spanRecorder, crossings int, prefixBytes int64) (*stager, error) {
	prof, err := cluster.MethodRegistry.Lookup(method)
	if err != nil {
		return nil, err
	}
	s := &stager{method: method, rec: rec, tok: api.NewTokenizer(vocab), crossings: crossings}
	if s.m, err = model.NewTransformer(model.Toy(), 0); err != nil {
		return nil, err
	}
	s.backend = serve.BackendForMethod(prof, 0)
	if w.Prefix {
		if s.backend, err = serve.PrefixBackendForMethod(prof, 0); err != nil {
			return nil, err
		}
		probe, err := s.backend(0)
		if err != nil {
			return nil, err
		}
		pi, _, err := probe.(attention.PrefixBackend).PrefixLayout()
		if err != nil {
			return nil, err
		}
		s.pageTokens = pi
		if s.prefix, err = serve.NewPrefixCache(PrefixResident*prefixBytes, pi, pi, int(prefixBytes/PrefixTokens)); err != nil {
			return nil, err
		}
	}
	if w.Fleet {
		if s.wire, err = newStagedWire(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stager) close() {
	if s.wire != nil {
		s.wire.close()
	}
	if s.prefix != nil {
		_ = s.prefix.Close()
	}
}

// replay performs one request and returns its token ids and the time
// to its first token, in seconds.
func (s *stager) replay(r *Request) (ids []int, ttftS float64, err error) {
	span := func(name string, f func() error) error { return s.rec.span(r.ID, s.method, name, f) }
	s.rec.begin(r.ID, s.method, "request")
	defer s.rec.end()
	start := s.rec.spans[len(s.rec.spans)-1].StartNS

	var prompt []int
	_ = span("api.encode", func() error { prompt = s.tok.Encode(r.Text); return nil })

	backend, err := s.backend(r.Seed)
	if err != nil {
		return nil, 0, err
	}
	var sess *model.Session
	var tok int
	if s.prefix != nil {
		sess, tok, err = s.prefixPrefill(r, backend, prompt)
	} else {
		if err = span("model.session", func() (e error) { sess, e = s.m.NewSession(backend); return }); err != nil {
			return nil, 0, err
		}
		err = span("model.prefill", func() (e error) { tok, e = sess.Prefill(prompt); return })
	}
	if err != nil {
		return nil, 0, err
	}
	if s.wire != nil {
		if sess, err = s.ship(r, backend, sess, tok); err != nil {
			return nil, 0, err
		}
	}
	for {
		_ = span("api.delta", func() error { _ = s.tok.Delta(tok, len(ids)); return nil })
		if ids = append(ids, tok); len(ids) == 1 {
			ttftS = float64(s.rec.spans[len(s.rec.spans)-1].EndNS-start) / 1e9
		}
		if len(ids) >= r.MaxTokens {
			return ids, ttftS, nil
		}
		if err = span("model.decode", func() (e error) { tok, e = sess.Decode(tok); return }); err != nil {
			return nil, 0, err
		}
	}
}

// ship moves a prefilled session's cache the way the fleet does: export
// each head, frame it, cross the shaped wire, decode the frames and
// restore a session from them.
func (s *stager) ship(r *Request, backend attention.Backend, sess *model.Session, firstTok int) (*model.Session, error) {
	span := func(name string, f func() error) error { return s.rec.span(r.ID, s.method, name, f) }
	spec := s.m.Spec()
	var frames [][]byte
	for l := 0; l < spec.Layers; l++ {
		for h := 0; h < spec.Heads; h++ {
			exp, ok := sess.Head(l, h).(attention.WireExporter)
			if !ok {
				return nil, fmt.Errorf("bench: backend %s does not export its cache", backend.Name())
			}
			var fr *netsim.KVFrame
			if err := span("kvcache.export", func() error {
				k, v, tail, draws, err := exp.ExportWire()
				if err != nil {
					return err
				}
				if fr, err = netsim.FrameFromTensors(uint64(r.ID), l, h, firstTok, k, v, tail.Data); err != nil {
					return err
				}
				fr.RNGDraws = draws
				return nil
			}); err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := span("netsim.frame_encode", func() error { _, err := fr.WriteTo(&buf); return err }); err != nil {
				return nil, err
			}
			frames = append(frames, buf.Bytes())
		}
	}
	for c := 0; c < s.crossings; c++ {
		if err := span("wire", func() (e error) { frames, e = s.wire.transfer(frames); return }); err != nil {
			return nil, err
		}
	}
	hb, ok := backend.(*attention.HACKBackend)
	if !ok {
		return nil, fmt.Errorf("bench: backend %s cannot adopt a shipped cache", backend.Name())
	}
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		heads[l] = make([]attention.Head, spec.Heads)
	}
	for _, payload := range frames {
		var fr netsim.KVFrame
		if err := span("netsim.frame_decode", func() error { _, err := fr.ReadFrom(bytes.NewReader(payload)); return err }); err != nil {
			return nil, err
		}
		if int(fr.Layer) >= spec.Layers || int(fr.Head) >= spec.Heads {
			return nil, fmt.Errorf("bench: frame for head (%d,%d) outside the model", fr.Layer, fr.Head)
		}
		if err := span("kvcache.restore", func() error {
			k, v, tail, err := fr.Tensors()
			if err != nil {
				return err
			}
			heads[fr.Layer][fr.Head], err = hb.RestoreHead(spec.HeadDim, k, v, tail, fr.RNGDraws)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var restored *model.Session
	err := span("model.session", func() (e error) { restored, e = s.m.RestoreSession(backend, heads); return })
	return restored, err
}

// prefixPrefill is the prefix tier's warm-or-cold prefill: look the
// prompt up, restore the matched pages and resume over the suffix (or
// prefill cold), then offer the session's pages back to the tier.
func (s *stager) prefixPrefill(r *Request, backend attention.Backend, prompt []int) (*model.Session, int, error) {
	span := func(name string, f func() error) error { return s.rec.span(r.ID, s.method, name, f) }
	spec := s.m.Spec()
	// The last prompt position is never cached: its logits are what
	// prefill produces.
	upTo := (len(prompt) - 1) / s.pageTokens * s.pageTokens
	var match *serve.PrefixMatch
	if err := span("kvcache.prefix_lookup", func() (e error) { match, e = s.prefix.Lookup(r.Seed, prompt, upTo); return }); err != nil {
		return nil, 0, err
	}
	var sess *model.Session
	var tok int
	if match != nil && match.Tokens > 0 {
		defer match.Release()
		if err := span("kvcache.prefix_restore", func() (e error) { sess, e = s.restorePages(backend, match); return }); err != nil {
			return nil, 0, err
		}
		if err := span("model.resume_prefill", func() (e error) { tok, e = sess.ResumePrefill(prompt, match.Tokens); return }); err != nil {
			return nil, 0, err
		}
	} else {
		if err := span("model.session", func() (e error) { sess, e = s.m.NewSession(backend); return }); err != nil {
			return nil, 0, err
		}
		if err := span("model.prefill", func() (e error) { tok, e = sess.Prefill(prompt); return }); err != nil {
			return nil, 0, err
		}
	}
	err := span("kvcache.prefix_insert", func() error {
		_, err := s.prefix.Insert(r.Seed, prompt, upTo, func(lo, hi int) ([]*netsim.KVFrame, error) {
			return prefixPageFrames(sess, spec, lo, hi)
		})
		return err
	})
	return sess, tok, err
}

// prefixPageFrames exports every head's pages [lo, hi) of sess as the
// frames the prefix tier stores (a frame's request id carries the page's
// first token).
func prefixPageFrames(sess *model.Session, spec model.Spec, lo, hi int) ([]*netsim.KVFrame, error) {
	var frames []*netsim.KVFrame
	for l := 0; l < spec.Layers; l++ {
		for h := 0; h < spec.Heads; h++ {
			k, v, err := sess.Head(l, h).(attention.PrefixPageExporter).ExportPrefixPages(lo, hi)
			if err != nil {
				return nil, err
			}
			f, err := netsim.FrameFromTensors(uint64(lo), l, h, 0, k, v, nil)
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// restorePages rebuilds a session over a match's cached pages: each
// block's frames are decoded and concatenated per head.
func (s *stager) restorePages(backend attention.Backend, match *serve.PrefixMatch) (*model.Session, error) {
	spec := s.m.Spec()
	type cell struct{ k, v *quant.Tensor }
	grid := make([][]cell, spec.Layers)
	for l := range grid {
		grid[l] = make([]cell, spec.Heads)
	}
	for _, blk := range match.Blocks {
		for _, f := range blk {
			k, v, _, err := f.Tensors()
			if err != nil {
				return nil, err
			}
			c := &grid[f.Layer][f.Head]
			if c.k == nil {
				c.k, c.v = k, v
				continue
			}
			if err := c.k.AppendRows(k); err != nil {
				return nil, err
			}
			if err := c.v.AppendRowBlocks(v); err != nil {
				return nil, err
			}
		}
	}
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		heads[l] = make([]attention.Head, spec.Heads)
		for h := range heads[l] {
			c := grid[l][h]
			if c.k == nil {
				return nil, fmt.Errorf("bench: prefix match carries no pages for head (%d,%d)", l, h)
			}
			var err error
			if heads[l][h], err = backend.(attention.PrefixBackend).RestorePrefixHead(spec.HeadDim, c.k, c.v); err != nil {
				return nil, err
			}
		}
	}
	return s.m.RestoreSession(backend, heads)
}

// stagedWire is a loopback connection through a shaping proxy to a
// benchmark-owned sink: what a KV transfer crosses.
type stagedWire struct {
	proxy *ShapedProxy
	ln    net.Listener
	conn  net.Conn
	// got delivers each finished transfer's frames; it is closed when
	// the sink's connection ends.
	got chan [][]byte
}

func newStagedWire() (*stagedWire, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &stagedWire{ln: ln, got: make(chan [][]byte)}
	go w.sink()
	if w.proxy, err = NewShapedProxy(ln.Addr().String(), WireBytesPerSecond); err == nil {
		w.conn, err = net.Dial("tcp", w.proxy.Addr())
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// sink reads framed messages off the one connection it accepts and
// hands over the frames of each transfer at its MsgTransferEnd.
func (w *stagedWire) sink() {
	defer close(w.got)
	conn, err := w.ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	var frames [][]byte
	for {
		t, payload, err := netsim.ReadMessage(conn)
		if err != nil {
			return
		}
		switch t {
		case netsim.MsgFrame:
			frames = append(frames, payload)
		case netsim.MsgTransferEnd:
			w.got <- frames
			frames = nil
		}
	}
}

// transfer sends the frames as the fleet does, one MsgFrame each and a
// MsgTransferEnd, and returns them as the far side received them.
func (w *stagedWire) transfer(frames [][]byte) ([][]byte, error) {
	for _, f := range frames {
		if err := netsim.WriteMessage(w.conn, netsim.MsgFrame, f); err != nil {
			return nil, err
		}
	}
	if err := netsim.WriteMessage(w.conn, netsim.MsgTransferEnd, nil); err != nil {
		return nil, err
	}
	got, ok := <-w.got
	if !ok {
		return nil, errors.New("bench: staged wire closed mid-transfer")
	}
	return got, nil
}

func (w *stagedWire) close() {
	if w.conn != nil {
		w.conn.Close()
	}
	if w.proxy != nil {
		w.proxy.Close()
	}
	w.ln.Close()
	// The sink ends when its connection does; drain its last send.
	for range w.got {
	}
}

// stagedRun replays the requests one at a time and returns each one's
// ids and TTFT.
func (s *stager) stagedRun(ctx context.Context, reqs []Request) (ids [][]int, ttftS []float64, err error) {
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		got, ttft, err := s.replay(&reqs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("bench: staged %s request %d: %w", s.method, reqs[i].ID, err)
		}
		ids, ttftS = append(ids, got), append(ttftS, ttft)
	}
	return ids, ttftS, nil
}
