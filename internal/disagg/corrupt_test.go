package disagg

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// The corrupt-wire suite: every role must treat a corrupted-CRC or
// truncated frame as a broken link — drop the connection, stay up, and
// (router-side) fail the attempt over — never crash, wedge, or fail the
// request terminally.

func routerTestHello() netsim.Hello {
	return netsim.Hello{Role: "router", NodeID: "test-router", Method: "hack",
		ModelSeed: testModelSeed, SpecName: model.Toy().Name, Vocab: model.Toy().Vocab}
}

// wireFrame serializes one message; corruptWireFrame breaks its CRC
// trailer so the bytes parse as a frame but fail the checksum.
func wireFrame(t *testing.T, mt netsim.MsgType, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netsim.WriteMessage(&buf, mt, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func corruptWireFrame(t *testing.T, mt netsim.MsgType, payload []byte) []byte {
	t.Helper()
	b := wireFrame(t, mt, payload)
	b[len(b)-1] ^= 0x01
	return b
}

func dialHandshake(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netsim.Handshake(conn, routerTestHello()); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

// pullFramesRaw drives one prefill by hand and returns the raw KV frame
// payloads — real transfer bytes to replay against a decode node.
func pullFramesRaw(t *testing.T, addr string, job PrefillJob) [][]byte {
	t.Helper()
	conn := dialHandshake(t, addr)
	defer conn.Close()
	if err := writeJSON(conn, netsim.MsgPrefill, job); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		mt, payload, err := netsim.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch mt {
		case netsim.MsgFrame:
			frames = append(frames, payload)
		case netsim.MsgTransferEnd:
			return frames
		default:
			t.Fatalf("unexpected %v during prefill pull", mt)
		}
	}
}

// TestPrefillDropsCorruptAndTruncatedFrames feeds a prefill node a
// corrupted-CRC job frame and a truncated one: both connections must be
// dropped without executing a job, and the node must keep serving clean
// connections.
func TestPrefillDropsCorruptAndTruncatedFrames(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	job := PrefillJob{RequestID: 1, Prompt: []int{1, 2, 3}, Seed: 9}
	raw := wireFrame(t, netsim.MsgPrefill, mustJSON(t, job))

	// Corrupted CRC: the node drops the connection without answering.
	conn := dialHandshake(t, p.Addr())
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0x01
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if mt, _, err := netsim.ReadMessage(conn); err == nil {
		t.Fatalf("prefill answered a corrupt-CRC frame with %v", mt)
	}
	conn.Close()

	// Truncated frame then a severed peer: ditto.
	conn = dialHandshake(t, p.Addr())
	if _, err := conn.Write(raw[:7]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The node is not wedged: a clean job on a fresh connection
	// round-trips, and the garbage never executed a prefill.
	frames := pullFramesRaw(t, p.Addr(), job)
	if len(frames) == 0 {
		t.Fatal("clean prefill after corrupt connections produced no frames")
	}
	if st := p.Stats(); st.Prefills != 1 {
		t.Fatalf("prefills %d, want 1 (corrupt frames must not execute)", st.Prefills)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeDropsCorruptAndTruncatedTransfers exercises a decode node's
// transfer path against a corrupted KV frame, a truncated one, and a
// half-open stall. Each must surface as a "transfer" fault (the typed
// kind the router retries on), free the handler within the frame
// deadline, and leave the node serving.
func TestDecodeDropsCorruptAndTruncatedTransfers(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := NewNode(NodeConfig{
		Addr: "127.0.0.1:0", Serve: testServeConfig(), FrameTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	req := Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 4, Seed: 9}
	frames := pullFramesRaw(t, p.Addr(), PrefillJob{RequestID: 1, Prompt: req.Prompt, Seed: req.Seed})
	job := DecodeJob{RequestID: 1, PromptLen: len(req.Prompt), Seed: req.Seed, MaxNew: req.MaxNewTokens}

	// readDone expects the node's best-effort MsgDone and returns its kind.
	readDone := func(t *testing.T, conn net.Conn) string {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		mt, payload, err := netsim.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reading decode's error report: %v", err)
		}
		if mt != netsim.MsgDone {
			t.Fatalf("decode answered %v, want %v", mt, netsim.MsgDone)
		}
		var done DoneMsg
		if err := jsonUnmarshal(payload, &done); err != nil {
			t.Fatal(err)
		}
		return done.Kind
	}

	t.Run("corrupt-crc", func(t *testing.T) {
		conn := dialHandshake(t, d.Addr())
		defer conn.Close()
		if err := writeJSON(conn, netsim.MsgDecode, job); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(corruptWireFrame(t, netsim.MsgFrame, frames[0])); err != nil {
			t.Fatal(err)
		}
		if kind := readDone(t, conn); kind != "transfer" {
			t.Fatalf("corrupt frame reported kind %q, want \"transfer\"", kind)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		conn := dialHandshake(t, d.Addr())
		if err := writeJSON(conn, netsim.MsgDecode, job); err != nil {
			t.Fatal(err)
		}
		full := wireFrame(t, netsim.MsgFrame, frames[0])
		if _, err := conn.Write(full[:len(full)/2]); err != nil {
			t.Fatal(err)
		}
		conn.Close() // peer dies mid-frame; the handler must just unwind
	})

	t.Run("half-open-stall", func(t *testing.T) {
		conn := dialHandshake(t, d.Addr())
		defer conn.Close()
		if err := writeJSON(conn, netsim.MsgDecode, job); err != nil {
			t.Fatal(err)
		}
		// Send nothing more: the frame deadline must free the handler and
		// report the timeout as a transfer fault.
		start := time.Now()
		if kind := readDone(t, conn); kind != "transfer" {
			t.Fatalf("stalled transfer reported kind %q, want \"transfer\"", kind)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("stalled transfer held the handler %v, want ~the 250ms frame deadline", waited)
		}
	})

	// The node still serves: a clean transfer streams the same tokens the
	// single-process reference produces.
	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := refTokens(t, ref, req)
	ref.Shutdown(context.Background())

	conn := dialHandshake(t, d.Addr())
	defer conn.Close()
	if err := writeJSON(conn, netsim.MsgDecode, job); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := netsim.WriteMessage(conn, netsim.MsgFrame, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := netsim.WriteMessage(conn, netsim.MsgTransferEnd, nil); err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		mt, payload, err := netsim.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if mt == netsim.MsgDone {
			var done DoneMsg
			if err := jsonUnmarshal(payload, &done); err != nil {
				t.Fatal(err)
			}
			if done.Err != "" {
				t.Fatalf("clean decode after corrupt connections failed: %s (%s)", done.Err, done.Kind)
			}
			break
		}
		if mt != netsim.MsgToken {
			t.Fatalf("unexpected %v in token stream", mt)
		}
		var tok TokenMsg
		if err := jsonUnmarshal(payload, &tok); err != nil {
			t.Fatal(err)
		}
		got = append(got, tok.ID)
	}
	if len(got) != len(want) {
		t.Fatalf("clean decode streamed %v, reference %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clean decode diverged at %d: %v vs %v", i, got, want)
		}
	}
}

// corruptingStub is a decode replica that streams a true token prefix
// and then poisons the stream — a corrupted-CRC token frame or a
// truncated one — instead of dying silently.
func corruptingStub(t *testing.T, tokens []TokenMsg, finale func(net.Conn)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hello := netsim.Hello{Role: "decode", NodeID: "corrupt-stub", Method: "hack",
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
				for {
					mt, _, err := netsim.ReadMessage(conn)
					if err != nil {
						return // the router's redials just close
					}
					if mt == netsim.MsgTransferEnd {
						break
					}
				}
				for _, tok := range tokens {
					if err := writeJSON(conn, netsim.MsgToken, tok); err != nil {
						return
					}
				}
				finale(conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestRouterFailsOverOnCorruptTokenStream puts a poisoning stub first in
// the placement order: after two true tokens the stub corrupts (or
// truncates) the stream, and the router must classify the garbage as
// retryable, fail over to the real replica, and deliver a byte-identical
// stream with no duplicated or dropped tokens.
func TestRouterFailsOverOnCorruptTokenStream(t *testing.T) {
	req := Request{Prompt: []int{9, 8, 7, 6, 5, 4}, MaxNewTokens: 10, Seed: 42}
	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := refTokens(t, ref, req)
	ref.Shutdown(context.Background())
	if len(want) < 4 {
		t.Fatalf("reference stream too short to split: %v", want)
	}
	prefix := []TokenMsg{{Index: 0, ID: want[0]}, {Index: 1, ID: want[1]}}

	finales := map[string]func(net.Conn){
		"corrupt-crc": func(conn net.Conn) {
			bad := corruptWireFrame(t, netsim.MsgToken, mustJSON(t, TokenMsg{Index: 2, ID: want[2]}))
			conn.Write(bad)
		},
		"truncated": func(conn net.Conn) {
			full := wireFrame(t, netsim.MsgToken, mustJSON(t, TokenMsg{Index: 2, ID: want[2]}))
			conn.Write(full[:len(full)/2])
		},
	}
	for name, finale := range finales {
		t.Run(name, func(t *testing.T) {
			stub, stopStub := corruptingStub(t, prefix, finale)
			defer stopStub()
			p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			r, err := NewRouter(RouterConfig{
				Prefills: []string{p.Addr()}, Decodes: []string{stub, d.Addr()},
				ModelSeed: testModelSeed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			st, err := r.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := collectRouted(st)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("failover stream has %d tokens, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("token %d diverged: got %d want %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
				}
			}
			rep := r.Report()
			if rep.Retries != 1 || rep.Failovers != 1 || rep.Failed != 0 {
				t.Fatalf("retries %d failovers %d failed %d, want 1/1/0", rep.Retries, rep.Failovers, rep.Failed)
			}
		})
	}
}

// TestRouterRetriesPrefillOnCorruptTransfer puts a prefill stub that
// ships a corrupted KV frame ahead of a real prefill node: the checksum
// mismatch must be classified retryable so the router pulls the transfer
// from the next prefill instead of failing the request.
func TestRouterRetriesPrefillOnCorruptTransfer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hello := netsim.Hello{Role: "prefill", NodeID: "corrupt-prefill", Method: "hack",
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
				if _, _, err := netsim.ReadMessage(conn); err != nil {
					return
				}
				conn.Write(corruptWireFrame(t, netsim.MsgFrame, []byte("garbage payload")))
			}()
		}
	}()

	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	req := Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 4, Seed: 9}
	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := refTokens(t, ref, req)
	ref.Shutdown(context.Background())

	// The corrupting stub is first in round-robin order for request 1.
	r, err := NewRouter(RouterConfig{
		Prefills: []string{ln.Addr().String(), p.Addr()}, Decodes: []string{d.Addr()},
		ModelSeed: testModelSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	st, err := r.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectRouted(st)
	if err != nil {
		t.Fatalf("corrupt prefill transfer failed the request: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged: %v vs %v", i, got, want)
		}
	}
	if rep := r.Report(); rep.Failed != 0 {
		t.Fatalf("%d requests failed", rep.Failed)
	}
}

// TestRouterRetryAvoidsFailedReplica pins the placement half of
// failover: replica 0's link corrupts every transfer and never heals,
// and the retry cap is the daemon default (bounded, small). Load-score
// ties break toward the first-registered replica, so without avoidance
// every retry would re-place the request on the same broken link and
// exhaust the cap while a clean replica sits idle; the retry must land
// on replica 1 and stream byte-identical tokens.
func TestRouterRetryAvoidsFailedReplica(t *testing.T) {
	inj := chaos.NewInjector(7)
	c, closeAll := newChaosCluster(t, 2, inj, func(rc *RouterConfig) {
		rc.RetryMax = 2 // the default bounded attempt cap, not budget-only
	})
	defer closeAll()
	// Persistent corruption on replica 0's link: the handshake (~220B)
	// survives CorruptEvery 4096, the ~5KB KV transfer does not.
	inj.SetPlan(c.decodes[0].Addr(), chaos.Plan{CorruptEvery: 4096})

	prompt := make([]int, 16)
	for j := range prompt {
		prompt[j] = (j*3 + 1) % model.Toy().Vocab
	}
	req := Request{Prompt: prompt, MaxNewTokens: 6, Seed: 41}

	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown(context.Background())
	want := refTokens(t, ref, req)

	st, err := c.router.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectRouted(st)
	if err != nil {
		t.Fatalf("request failed with a clean replica available: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged: %v vs %v", i, got, want)
		}
	}
	rep := c.router.Report()
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed", rep.Failed)
	}
	if rep.Retries == 0 {
		t.Fatal("the corrupted link triggered no retry")
	}
	if st := inj.Stats(); st.BytesCorrupted == 0 {
		t.Fatal("the corruption plan never bit — the test proved nothing")
	}
}
