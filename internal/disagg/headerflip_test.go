package disagg

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// The header bit-flip suite: corruption landing in the bytes *outside*
// a CRC's cover — a wire message's 5-byte head, a KV frame's 12-byte
// head — must degrade exactly like a checksum mismatch on every role.
// No request may fail terminally while a clean peer exists, and no node
// may wedge or crash.

// flipBit returns a copy of b with one bit flipped.
func flipBit(b []byte, off int, bit uint) []byte {
	out := append([]byte(nil), b...)
	out[off] ^= 1 << bit
	return out
}

// headerFlips enumerates the deterministic wire-message head flips: the
// type byte (caught by the CRC or the type check) and the length MSB's
// top bit (escapes the CRC entirely; only the length bound catches it).
var headerFlips = []struct {
	name string
	off  int
	bit  uint
}{
	{"type-byte", 0, 0},
	{"len-overflow", 4, 7},
}

// TestPrefillSurvivesHeaderBitFlips feeds a prefill node job frames with
// header bit-flips: each connection must be dropped without executing a
// job, and the node must keep serving clean connections.
func TestPrefillSurvivesHeaderBitFlips(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	job := PrefillJob{RequestID: 1, Prompt: []int{1, 2, 3}, Seed: 9}
	raw := wireFrame(t, netsim.MsgPrefill, mustJSON(t, job))

	for _, hf := range headerFlips {
		t.Run(hf.name, func(t *testing.T) {
			conn := dialHandshake(t, p.Addr())
			defer conn.Close()
			if _, err := conn.Write(flipBit(raw, hf.off, hf.bit)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if mt, _, err := netsim.ReadMessage(conn); err == nil {
				t.Fatalf("prefill answered a header-flipped frame with %v", mt)
			}
		})
	}

	// The node is not wedged and none of the garbage executed a prefill.
	frames := pullFramesRaw(t, p.Addr(), job)
	if len(frames) == 0 {
		t.Fatal("clean prefill after header-flipped connections produced no frames")
	}
	if st := p.Stats(); st.Prefills != 1 {
		t.Fatalf("prefills %d, want 1 (header-flipped frames must not execute)", st.Prefills)
	}
}

// TestDecodeReportsTransferOnFrameHeadFlips ships a decode node a KV
// transfer whose first frame has a bit flipped inside the KVFrame's own
// 12-byte head (magic, version, length) — the wire message around it is
// valid, so only the frame-head parse can catch it. Each must surface
// as the retryable "transfer" done kind and leave the node serving.
func TestDecodeReportsTransferOnFrameHeadFlips(t *testing.T) {
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

	frameFlips := []struct {
		name string
		off  int
		bit  uint
	}{
		{"magic", 0, 3},
		{"version", 4, 0},
		{"len-overflow", 11, 7},
	}
	for _, ff := range frameFlips {
		t.Run(ff.name, func(t *testing.T) {
			conn := dialHandshake(t, d.Addr())
			defer conn.Close()
			if err := writeJSON(conn, netsim.MsgDecode, job); err != nil {
				t.Fatal(err)
			}
			// A valid wire message carrying a head-flipped KVFrame.
			bad := flipBit(frames[0], ff.off, ff.bit)
			if err := netsim.WriteMessage(conn, netsim.MsgFrame, bad); err != nil {
				t.Fatal(err)
			}
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
			if done.Kind != "transfer" {
				t.Fatalf("frame-head flip %s reported kind %q, want \"transfer\"", ff.name, done.Kind)
			}
		})
	}

	// The node still serves a clean transfer afterwards.
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
				t.Fatalf("clean decode after header flips failed: %s (%s)", done.Err, done.Kind)
			}
			break
		}
		if mt != netsim.MsgToken {
			t.Fatalf("unexpected %v in token stream", mt)
		}
	}
}

// TestRouterZeroFailuresUnderHeaderFlips runs the router leg of the
// sweep: a decode stub that poisons its token stream with a
// header-flipped message, and a prefill stub that answers the job pull
// with one. Both flips sit outside the CRC, so only the typed header
// classification makes them retryable — the router must fail over and
// deliver every stream byte-identical with zero failed requests.
func TestRouterZeroFailuresUnderHeaderFlips(t *testing.T) {
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

	t.Run("decode-stream", func(t *testing.T) {
		for _, hf := range headerFlips {
			t.Run(hf.name, func(t *testing.T) {
				prefix := []TokenMsg{{Index: 0, ID: want[0]}, {Index: 1, ID: want[1]}}
				finale := func(conn net.Conn) {
					full := wireFrame(t, netsim.MsgToken, mustJSON(t, TokenMsg{Index: 2, ID: want[2]}))
					conn.Write(flipBit(full, hf.off, hf.bit))
				}
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
					t.Fatalf("header flip failed the request: %v", err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("failover stream diverged:\ngot  %v\nwant %v", got, want)
				}
				rep := r.Report()
				if rep.Failed != 0 {
					t.Fatalf("%d requests failed", rep.Failed)
				}
				if rep.Failovers != 1 {
					t.Fatalf("failovers %d, want 1", rep.Failovers)
				}
			})
		}
	})

	t.Run("prefill-pull", func(t *testing.T) {
		for _, hf := range headerFlips {
			t.Run(hf.name, func(t *testing.T) {
				// A prefill stub that answers the job with a header-flipped
				// frame message.
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				hello := netsim.Hello{Role: "prefill", NodeID: "flip-prefill", Method: "hack",
					ModelSeed: testModelSeed, SpecName: model.Toy().Name, Vocab: model.Toy().Vocab}
				flip := hf
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
							var buf bytes.Buffer
							_ = netsim.WriteMessage(&buf, netsim.MsgFrame, []byte("payload"))
							conn.Write(flipBit(buf.Bytes(), flip.off, flip.bit))
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

				// The flipping stub is first in round-robin order.
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
					t.Fatalf("header-flipped prefill pull failed the request: %v", err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("stream diverged:\ngot  %v\nwant %v", got, want)
				}
				if rep := r.Report(); rep.Failed != 0 {
					t.Fatalf("%d requests failed", rep.Failed)
				}
			})
		}
	})
}
