package disagg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
)

// relayHold bounds how long a scripted peer waits for the router to
// relay a frame it still holds back. A store-and-forward router never
// relays before the transfer ends, so it runs every relay test into
// this bound instead of deadlocking it.
const relayHold = 3 * time.Second

// scriptedPeer listens for router links, runs the handshake under
// hello, and hands every connection that sends a job to script (health
// probes and handshakes that close at once are dropped).
func scriptedPeer(t *testing.T, role string, script func(conn net.Conn, job []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hello := netsim.Hello{Role: role, NodeID: "scripted-" + role, Method: "hack",
		ModelSeed: testModelSeed, SpecName: model.Toy().Name, Vocab: model.Toy().Vocab}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := netsim.AcceptHandshake(conn, hello, nil); err != nil {
					return
				}
				_, job, err := netsim.ReadMessage(conn)
				if err != nil {
					return
				}
				script(conn, job)
			}()
		}
	}()
	return ln.Addr().String()
}

// holdFrames is a prefill peer that ships frames[:release], waits until
// ready closes (or relayHold passes, which it records as a timeout),
// then ships the rest and ends the transfer.
type holdFrames struct {
	frames   [][]byte
	release  int
	ready    chan struct{}
	mu       sync.Mutex
	timedOut bool
}

func (h *holdFrames) serve(conn net.Conn, _ []byte) {
	for i, f := range h.frames {
		if i == h.release {
			select {
			case <-h.ready:
			case <-time.After(relayHold):
				h.mu.Lock()
				h.timedOut = true
				h.mu.Unlock()
			}
		}
		if netsim.WriteMessage(conn, netsim.MsgFrame, f) != nil {
			return
		}
	}
	netsim.WriteMessage(conn, netsim.MsgTransferEnd, nil)
}

func (h *holdFrames) heldTooLong() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.timedOut
}

// tap is a decode replica that forwards each router link to a real
// node and records, per link, the KV frames that crossed it. onFrame
// sees each frame as it is forwarded: (link number, frame index).
type tap struct {
	mu      sync.Mutex
	links   [][][]byte
	onFrame func(link, frame int)
}

func newTap(t *testing.T, node string, onFrame func(link, frame int)) (*tap, string) {
	tp := &tap{onFrame: onFrame}
	addr := scriptedPeer(t, "decode", func(conn net.Conn, job []byte) {
		up, _, err := dial(node, routerTestHello(), 2*time.Second)
		if err != nil {
			return
		}
		defer up.Close()
		tp.mu.Lock()
		link := len(tp.links)
		tp.links = append(tp.links, nil)
		tp.mu.Unlock()
		if netsim.WriteMessage(up, netsim.MsgDecode, job) != nil {
			return
		}
		go func() {
			io.Copy(conn, up)
			conn.Close()
		}()
		for {
			mt, payload, err := netsim.ReadMessage(conn)
			if err != nil {
				return // closing up ends the node's job and the copy back
			}
			if mt == netsim.MsgFrame {
				tp.mu.Lock()
				tp.links[link] = append(tp.links[link], payload)
				n := len(tp.links[link])
				tp.mu.Unlock()
				if tp.onFrame != nil {
					tp.onFrame(link, n-1)
				}
			}
			if netsim.WriteMessage(up, mt, payload) != nil {
				return
			}
		}
	})
	return tp, addr
}

func (tp *tap) framesOn(link int) [][]byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if link >= len(tp.links) {
		return nil
	}
	return append([][]byte(nil), tp.links[link]...)
}

// relayFixture is a real frame source, a real decode node, and the
// single-process reference for one request. The router's first request
// carries RequestID 1, so frames are pulled for that id.
type relayFixture struct {
	req    Request
	want   []int
	frames [][]byte
	decode *Node
}

func newRelayFixture(t *testing.T) *relayFixture {
	t.Helper()
	req := Request{Prompt: []int{9, 8, 7, 6, 5, 4, 3, 2}, MaxNewTokens: 8, Seed: 23}
	ref := newReference(t)
	want := refTokens(t, ref, req)
	src, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	frames := pullFramesRaw(t, src.Addr(), PrefillJob{RequestID: 1, Prompt: req.Prompt, Seed: req.Seed})
	if len(frames) != 4 {
		t.Fatalf("Toy transfer has %d frames, want 4 (2 layers × 2 heads)", len(frames))
	}
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return &relayFixture{req: req, want: want, frames: frames, decode: d}
}

// route submits the fixture's request and requires a byte-identical,
// gap-free stream within relayHold plus slack.
func (f *relayFixture) route(t *testing.T, r *Router) {
	t.Helper()
	st, err := r.Submit(context.Background(), f.req)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		got []int
		err error
	}
	done := make(chan result, 1)
	go func() {
		got, err := collectRouted(st)
		done <- result{got, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if fmt.Sprint(res.got) != fmt.Sprint(f.want) {
			t.Fatalf("routed %v, reference %v", res.got, f.want)
		}
	case <-time.After(2*relayHold + 5*time.Second):
		t.Fatal("request never finished: the relay deadlocked")
	}
}

func sameFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s carried %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s frame %d differs from the prefill leg's", what, i)
		}
	}
}

// TestRelayCutsThrough holds the prefill leg's last frame until the
// decode replica has received the first one. A cut-through router
// relays frame 0 as it lands, so the hold is released at once; a
// store-and-forward router waits for the whole transfer first and runs
// the hold into its bound.
func TestRelayCutsThrough(t *testing.T) {
	frames := [][]byte{[]byte("frame-0"), []byte("frame-1"), []byte("frame-2"), []byte("frame-3")}
	pre := &holdFrames{frames: frames, release: len(frames) - 1, ready: make(chan struct{})}
	prefill := scriptedPeer(t, "prefill", pre.serve)
	var once sync.Once
	var mu sync.Mutex
	var got [][]byte
	decode := scriptedPeer(t, "decode", func(conn net.Conn, _ []byte) {
		for {
			mt, payload, err := netsim.ReadMessage(conn)
			if err != nil {
				return
			}
			if mt == netsim.MsgTransferEnd {
				break
			}
			mu.Lock()
			got = append(got, payload)
			mu.Unlock()
			once.Do(func() { close(pre.ready) })
		}
		writeJSON(conn, netsim.MsgToken, TokenMsg{Index: 0, ID: 7})
		writeJSON(conn, netsim.MsgDone, DoneMsg{Tokens: 1})
	})
	r, err := NewRouter(RouterConfig{Prefills: []string{prefill}, Decodes: []string{decode},
		ModelSeed: testModelSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	st, err := r.Submit(context.Background(), Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	toks, err := collectRouted(st)
	if err != nil {
		t.Fatal(err)
	}
	if pre.heldTooLong() {
		t.Fatalf("the decode replica saw no frame within %v of frame 0 landing: store-and-forward", relayHold)
	}
	if fmt.Sprint(toks) != "[7]" {
		t.Fatalf("routed %v, want [7]", toks)
	}
	mu.Lock()
	sameFrames(t, "the decode link", got, frames)
	mu.Unlock()
	rep := r.Report()
	if rep.LinkKVBytes["prefill→router "+prefill] != 28 || rep.LinkKVBytes["router→decode "+decode] != 28 {
		t.Fatalf("per-leg KV bytes %v, want 28 on each leg", rep.LinkKVBytes)
	}
	if rep.TransferSeconds.P50 <= 0 {
		t.Fatalf("no transfer sample for the completed request: %+v", rep.TransferSeconds)
	}
}

// TestRelayPrefillCutMidRelay cuts the first prefill node's link after
// two of four frames, once they have reached the decode replica. The
// router must cancel that decode attempt without charging the replica,
// take the job to the healthy second prefill node with a fresh log, and
// stream byte-identical tokens: a retry that appended to the old log
// would ship duplicate heads.
func TestRelayPrefillCutMidRelay(t *testing.T) {
	f := newRelayFixture(t)
	relayed := make(chan struct{})
	var once sync.Once
	tp, decode := newTap(t, f.decode.Addr(), func(link, frame int) {
		if link == 0 && frame == 1 {
			once.Do(func() { close(relayed) })
		}
	})
	cut := scriptedPeer(t, "prefill", func(conn net.Conn, _ []byte) {
		for _, fr := range f.frames[:2] {
			if netsim.WriteMessage(conn, netsim.MsgFrame, fr) != nil {
				return
			}
		}
		select {
		case <-relayed:
		case <-time.After(relayHold):
		}
		// Returning closes the link mid-transfer.
	})
	healthy, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	r, err := NewRouter(RouterConfig{Prefills: []string{cut, healthy.Addr()}, Decodes: []string{decode},
		ModelSeed: testModelSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	f.route(t, r)
	sameFrames(t, "the cancelled attempt", tp.framesOn(0), f.frames[:2])
	sameFrames(t, "the retry", tp.framesOn(1), f.frames)
	rep := r.Report()
	if rep.Failed != 0 || rep.Completed != 1 {
		t.Fatalf("completed %d failed %d, want 1/0", rep.Completed, rep.Failed)
	}
	if b := rep.Replicas[0].Breaker; b.State != "closed" || b.ConsecutiveFails != 0 || b.Trips != 0 {
		t.Fatalf("the prefill link's fault was charged to the decode replica: %+v", b)
	}
	if n := healthy.Stats().Prefills; n != 1 {
		t.Fatalf("healthy prefill node ran %d prefills, want 1", n)
	}
}

// TestRelayReplaysLogWhileFilling kills the first decode replica after
// it received frame 0, while the prefill leg still holds frames 2 and 3
// back until the retry's replica has received frame 1. The retry must
// replay the log from frame 0 as it fills, and stream byte-identical
// tokens.
func TestRelayReplaysLogWhileFilling(t *testing.T) {
	f := newRelayFixture(t)
	pre := &holdFrames{frames: f.frames, release: 2, ready: make(chan struct{})}
	prefill := scriptedPeer(t, "prefill", pre.serve)
	dies := scriptedPeer(t, "decode", func(conn net.Conn, _ []byte) {
		netsim.ReadMessage(conn) // frame 0, then the replica dies
	})
	var once sync.Once
	tp, survivor := newTap(t, f.decode.Addr(), func(_, frame int) {
		if frame == 1 {
			once.Do(func() { close(pre.ready) })
		}
	})
	// The dying replica registers first: equal load scores place the
	// first attempt on it.
	r, err := NewRouter(RouterConfig{Prefills: []string{prefill}, Decodes: []string{dies, survivor},
		ModelSeed: testModelSeed, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	f.route(t, r)
	if pre.heldTooLong() {
		t.Fatalf("the retry received no replayed frames within %v: it waited for the whole log", relayHold)
	}
	sameFrames(t, "the retry", tp.framesOn(0), f.frames)
	if rep := r.Report(); rep.Retries != 1 || rep.Failed != 0 {
		t.Fatalf("retries %d failed %d, want 1/0", rep.Retries, rep.Failed)
	}
}

// TestRelayReplayMustMatch fails over from a replica that dies after
// three true tokens to one that replays index 1 with another id. The
// router must fail the request with ErrStreamDiverged, having delivered
// only the true prefix.
func TestRelayReplayMustMatch(t *testing.T) {
	req := Request{Prompt: []int{9, 8, 7, 6, 5, 4}, MaxNewTokens: 10, Seed: 42}
	want := refTokens(t, newReference(t), req)
	if len(want) < 4 {
		t.Fatalf("reference stream too short to split: %v", want)
	}
	honest, stopHonest := stubReplica(t, []TokenMsg{{Index: 0, ID: want[0]}, {Index: 1, ID: want[1]}, {Index: 2, ID: want[2]}})
	defer stopHonest()
	liar, stopLiar := stubReplica(t, []TokenMsg{{Index: 0, ID: want[0]}, {Index: 1, ID: (want[1] + 1) % model.Toy().Vocab}})
	defer stopLiar()
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r, err := NewRouter(RouterConfig{Prefills: []string{p.Addr()}, Decodes: []string{honest, liar},
		ModelSeed: testModelSeed, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	st, err := r.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for tok := range st.Tokens() {
		got = append(got, tok.ID)
	}
	if err := st.Err(); !errors.Is(err, ErrStreamDiverged) {
		t.Fatalf("err = %v, want ErrStreamDiverged", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want[:3]) {
		t.Fatalf("delivered %v, want the true prefix %v", got, want[:3])
	}
}
