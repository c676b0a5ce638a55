// Package disagg executes the paper's actual deployment scenario: true
// disaggregated serving, with prefill and decode running in different
// processes connected by a real TCP wire. Where package sim prices the
// prefill→decode KV transfer and package serve batches both phases in
// one process, disagg splits them:
//
//   - A Node wraps one serve.Server and answers both wire jobs. A
//     prefill job runs through the runtime's admission queue, prefill
//     workers and prefix tier, and the node ships each head's quantized
//     KV cache as netsim KVFrames — the same codec the simulator prices
//     — over a length-prefixed, CRC-trailed message stream with a
//     versioned handshake. A decode job reconstructs the cache
//     (quant.FromWire) and feeds the request into the continuous-
//     batching decode loop via SubmitPrefilled. The node's role
//     ("prefill" or "decode") only labels its handshake.
//   - A Router drives prefill on the first prefill node that takes the
//     job (moving on when one is unreachable, full or draining) and
//     relays and logs the KV frames: each CRC-checked frame goes on to
//     the decode replica as it lands, so the prefill→router and
//     router→decode crossings overlap. It fronts N decode replicas with
//     FlowKV-style load-aware placement (the same drain/pending-KV
//     signals sim's schedulers score) and on replica death replays
//     the log from its first frame on another replica with bounded
//     backoff. A replica's placement state is its circuit breaker and
//     its draining bit, fed only by the router's wire jobs: transport
//     faults feed the breaker, a "draining" reply marks the drain, and
//     every breaker cooldown the router dials each replica out of
//     placement, whose completed handshake closes the breaker and
//     whose Hello says whether it still drains. The router makes no
//     HTTP request; nodes serve /healthz and /metrics for
//     orchestrators.
//
// Because every quantizer draw is a pure function of (seed, operand,
// token position), a restored cache continues exactly where the prefill
// side left it, and a disaggregated deployment streams tokens
// byte-identical to the single-process runtime for the same (prompt,
// seed) — stochastic rounding included. That identity is the package's core invariant and
// is what the loopback integration tests assert.
package disagg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// defaultFrameTimeout bounds one framed read or write inside a transfer
// or token stream when the config leaves FrameTimeout zero. It is the
// half-open-peer guard: without it a peer that stops mid-frame wedges
// the transfer goroutine forever.
const defaultFrameTimeout = 10 * time.Second

// Typed terminal errors a router surfaces to clients.
var (
	// ErrNoPrefill means no healthy prefill node could be reached.
	ErrNoPrefill = errors.New("disagg: no healthy prefill node")
	// ErrNoReplicas means no decode replica was in placement: every
	// one was draining or had its circuit breaker open.
	ErrNoReplicas = errors.New("disagg: no healthy decode replica")
	// ErrTransferFailed means the KV transfer (or the decode stream after
	// it) failed on every retry attempt.
	ErrTransferFailed = errors.New("disagg: transfer failed after retries")
	// ErrStreamDiverged means a decode replica's token stream contradicted
	// the tokens already delivered: a replayed index carrying a different
	// id, or an index past the next one. That breaks the byte-identity
	// invariant, so the request fails instead of passing it on.
	ErrStreamDiverged = errors.New("disagg: decode stream diverged from the delivered tokens")
)

// PrefillJob asks a prefill node to run one request's prefill and ship
// the resulting KV cache (MsgPrefill payload).
type PrefillJob struct {
	RequestID uint64 `json:"request_id"`
	Prompt    []int  `json:"prompt"`
	Seed      int64  `json:"seed"`
}

// DecodeJob asks a decode replica to adopt a shipped KV cache and run
// the decode phase (MsgDecode payload). The frames that follow carry the
// cache itself plus the prefill-stage first token.
type DecodeJob struct {
	RequestID uint64 `json:"request_id"`
	PromptLen int    `json:"prompt_len"`
	Seed      int64  `json:"seed"`
	MaxNew    int    `json:"max_new_tokens,omitempty"`
	EOS       int    `json:"eos,omitempty"`
}

// TokenMsg is one streamed token (MsgToken payload). It is the
// runtime's own token type, so the router hands each one to its Stream
// as it came off the wire.
type TokenMsg = serve.Token

// DoneMsg terminates a request's stream (MsgDone payload). Err is empty
// for a natural finish; Kind classifies failures so the router can map
// them back to typed errors ("queue_full", "draining", "failed").
type DoneMsg struct {
	Tokens int    `json:"tokens"`
	Err    string `json:"err,omitempty"`
	Kind   string `json:"kind,omitempty"`
}

// writeJSON frames one JSON-payload message.
func writeJSON(w io.Writer, t netsim.MsgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return netsim.WriteMessage(w, t, payload)
}

// writeJSONTimeout is writeJSON under a per-frame write deadline.
func writeJSONTimeout(conn net.Conn, d time.Duration, t netsim.MsgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return netsim.WriteMessageTimeout(conn, d, t, payload)
}

// readExpect reads one message and requires the given type, answering
// keepalive pings transparently.
func readExpect(rw io.ReadWriter, want netsim.MsgType) ([]byte, error) {
	for {
		t, payload, err := netsim.ReadMessage(rw)
		if err != nil {
			return nil, err
		}
		if t == netsim.MsgPing {
			if err := netsim.WriteMessage(rw, netsim.MsgPong, nil); err != nil {
				return nil, err
			}
			continue
		}
		if t != want {
			return nil, fmt.Errorf("disagg: got %v, want %v", t, want)
		}
		return payload, nil
	}
}

// readExpectTimeout is readExpect with each framed read bounded by d —
// used inside transfers, where the peer owes the next frame promptly
// and a stall means the link or peer is wedged.
func readExpectTimeout(conn net.Conn, d time.Duration, want netsim.MsgType) ([]byte, error) {
	for {
		t, payload, err := netsim.ReadMessageTimeout(conn, d)
		if err != nil {
			return nil, err
		}
		if t == netsim.MsgPing {
			if err := netsim.WriteMessage(conn, netsim.MsgPong, nil); err != nil {
				return nil, err
			}
			continue
		}
		if t != want {
			return nil, fmt.Errorf("disagg: got %v, want %v", t, want)
		}
		return payload, nil
	}
}

// dial connects with a deadline and runs the initiator handshake.
func dial(addr string, self netsim.Hello, timeout time.Duration) (net.Conn, netsim.Hello, error) {
	return dialWith(nil, addr, self, timeout)
}

// dialWith is dial through an injectable dialer (nil means the real
// network) — the hook fault-injection harnesses use to interpose
// chaos.Conn on every link a node opens.
func dialWith(dialer chaos.Dialer, addr string, self netsim.Hello, timeout time.Duration) (net.Conn, netsim.Hello, error) {
	if dialer == nil {
		dialer = func(network, a string, t time.Duration) (net.Conn, error) {
			return net.DialTimeout(network, a, t)
		}
	}
	conn, err := dialer("tcp", addr, timeout)
	if err != nil {
		return nil, netsim.Hello{}, err
	}
	_ = conn.SetDeadline(time.Now().Add(timeout))
	peer, err := netsim.Handshake(conn, self)
	if err != nil {
		conn.Close()
		return nil, netsim.Hello{}, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, peer, nil
}
