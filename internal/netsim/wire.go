package netsim

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The live wire protocol between disaggregated serving roles. A
// connection starts with a versioned handshake (MsgHello / MsgHelloAck
// carrying a Hello JSON payload) and then exchanges length-prefixed,
// CRC-trailed messages:
//
//	[type:1][len:4 LE][payload][crc32(type‖payload):4 LE]
//
// KV payloads (MsgFrame) embed a KVFrame's own serialized bytes, so the
// quantized-cache framing that the simulator priced is exactly what
// crosses the real TCP link.

// WireVersion is the handshake protocol version. Version 2 ships caches
// quantized under position-keyed rounding, which version-1 nodes would
// decode into silently different streams, so the handshake refuses a
// peer of any other version.
const WireVersion = 2

// wireMagic guards the handshake so a stray client speaking another
// protocol is rejected on the first message.
const wireMagic = 0x4841434B // "HACK"

// maxWireMessage bounds one message's payload; KV frames dominate and
// are themselves bounded by maxFrameSize.
const maxWireMessage = maxFrameSize + 1024

// MsgType identifies a wire message.
type MsgType uint8

// Wire message types. The request payloads are JSON (PrefillJob /
// DecodeJob / TokenMsg / DoneMsg below); MsgFrame carries KVFrame bytes;
// MsgPing/MsgPong are empty keepalives.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgPrefill     // router → prefill: PrefillJob
	MsgDecode      // router → decode: DecodeJob
	MsgFrame       // KV transfer: one serialized KVFrame
	MsgTransferEnd // KV transfer complete (empty payload)
	MsgToken       // decode → router: TokenMsg
	MsgDone        // terminal: DoneMsg
	MsgPing
	MsgPong
	MsgHelloErr // responder → initiator: handshake refused; payload is the reason
	msgTypeEnd  // sentinel: first invalid type
)

func (t MsgType) valid() bool { return t >= MsgHello && t < msgTypeEnd }

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgPrefill:
		return "prefill"
	case MsgDecode:
		return "decode"
	case MsgFrame:
		return "frame"
	case MsgTransferEnd:
		return "transfer-end"
	case MsgToken:
		return "token"
	case MsgDone:
		return "done"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgHelloErr:
		return "hello-err"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// WriteMessage frames one message onto w.
func WriteMessage(w io.Writer, t MsgType, payload []byte) error {
	if !t.valid() {
		return fmt.Errorf("netsim: cannot send message type %d", t)
	}
	if len(payload) > maxWireMessage {
		return fmt.Errorf("netsim: message payload %d exceeds limit", len(payload))
	}
	head := make([]byte, 5)
	head[0] = byte(t)
	binary.LittleEndian.PutUint32(head[1:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	_, _ = crc.Write(head[:1])
	_, _ = crc.Write(payload)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(trailer[:])
	return err
}

// ReadMessage parses one message off r, verifying the type, the length
// bound, and the CRC trailer. Corrupt input errors; it never panics.
func ReadMessage(r io.Reader) (MsgType, []byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	t := MsgType(head[0])
	if !t.valid() {
		// The type byte is covered by the CRC, but a flip that lands on an
		// invalid type is detected here first; it is the same link fault as
		// a checksum mismatch, so it carries the same typed classification.
		return 0, nil, fmt.Errorf("%w: unknown message type %d", ErrFrameCorrupt, head[0])
	}
	n := binary.LittleEndian.Uint32(head[1:])
	if n > maxWireMessage {
		// The length field sits outside the CRC: a bit-flip there is only
		// catchable by this bound (or by the misframed body failing its
		// CRC), so it must be typed as corruption, not a protocol error.
		return 0, nil, fmt.Errorf("%w: message length %d exceeds limit", ErrFrameCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return 0, nil, err
	}
	crc := crc32.NewIEEE()
	_, _ = crc.Write(head[:1])
	_, _ = crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(trailer[:]) {
		return 0, nil, ErrChecksum
	}
	return t, payload, nil
}

// ErrChecksum means a message arrived with a CRC mismatch — the link is
// corrupting bytes. The stream cannot be resynced (framing is lost), so
// callers must drop the connection; retrying over a fresh one can help.
var ErrChecksum = errors.New("netsim: message checksum mismatch")

// Hello is the handshake payload both ends exchange before any other
// message. The responder validates compatibility (version, model,
// method) and reports whether it is draining, so every connection a
// router opens also tells it whether the peer takes new work.
type Hello struct {
	Magic   uint32 `json:"magic"`
	Version int    `json:"version"`
	// Role is the speaker's serving role ("router", "prefill", "decode").
	Role string `json:"role"`
	// NodeID names the node (host:port of its wire listener by default).
	NodeID string `json:"node_id"`
	// Method/ModelSeed/SpecName/Vocab describe the served deployment;
	// peers refuse mismatched configurations at connect time instead of
	// producing silently divergent streams.
	Method    string `json:"method"`
	ModelSeed int64  `json:"model_seed"`
	SpecName  string `json:"spec_name"`
	Vocab     int    `json:"vocab"`
	// Draining is the responder's state when it answered: true once it
	// has begun a graceful shutdown and refuses new jobs.
	Draining bool `json:"draining,omitempty"`
}

// ParseHello decodes and validates a handshake payload.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return Hello{}, fmt.Errorf("netsim: handshake: %w", err)
	}
	if h.Magic != wireMagic {
		return Hello{}, errors.New("netsim: handshake magic mismatch")
	}
	if h.Version != WireVersion {
		return Hello{}, fmt.Errorf("netsim: handshake version %d, want %d", h.Version, WireVersion)
	}
	return h, nil
}

// seal stamps the magic and version before sending.
func (h Hello) seal() Hello {
	h.Magic = wireMagic
	h.Version = WireVersion
	return h
}

// ErrHandshakeRefused means the responder rejected this node's Hello —
// a protocol-level refusal (incompatible deployment), as opposed to a
// transport failure. Redialing will not help.
var ErrHandshakeRefused = errors.New("netsim: handshake refused")

// Handshake runs the initiator side: send MsgHello, await MsgHelloAck,
// and return the responder's validated identity. A MsgHelloErr reply
// surfaces as an error wrapping ErrHandshakeRefused.
func Handshake(rw io.ReadWriter, self Hello) (Hello, error) {
	payload, err := json.Marshal(self.seal())
	if err != nil {
		return Hello{}, err
	}
	if err := WriteMessage(rw, MsgHello, payload); err != nil {
		return Hello{}, err
	}
	t, ack, err := ReadMessage(rw)
	if err != nil {
		return Hello{}, err
	}
	if t == MsgHelloErr {
		return Hello{}, fmt.Errorf("%w: %s", ErrHandshakeRefused, ack)
	}
	if t != MsgHelloAck {
		return Hello{}, fmt.Errorf("netsim: handshake got %v, want %v", t, MsgHelloAck)
	}
	peer, err := ParseHello(ack)
	if err != nil {
		return Hello{}, fmt.Errorf("%w: %v", ErrHandshakeRefused, err)
	}
	return peer, nil
}

// AcceptHandshake runs the responder side: await MsgHello, validate it
// (version and magic, then the optional check), and reply MsgHelloAck
// with self — or MsgHelloErr with the reason.
func AcceptHandshake(rw io.ReadWriter, self Hello, check func(Hello) error) (Hello, error) {
	t, payload, err := ReadMessage(rw)
	if err != nil {
		return Hello{}, err
	}
	if t != MsgHello {
		return Hello{}, fmt.Errorf("netsim: handshake got %v, want %v", t, MsgHello)
	}
	peer, err := ParseHello(payload)
	if err == nil && check != nil {
		err = check(peer)
	}
	if err != nil {
		// Tell the initiator it was refused (vs a dead peer) so it
		// doesn't redial; best-effort, the error is what matters.
		_ = WriteMessage(rw, MsgHelloErr, []byte(err.Error()))
		return Hello{}, err
	}
	ack, err := json.Marshal(self.seal())
	if err != nil {
		return Hello{}, err
	}
	if err := WriteMessage(rw, MsgHelloAck, ack); err != nil {
		return Hello{}, err
	}
	return peer, nil
}

// Ping sends a keepalive and waits for the pong.
func Ping(rw io.ReadWriter) error {
	if err := WriteMessage(rw, MsgPing, nil); err != nil {
		return err
	}
	t, _, err := ReadMessage(rw)
	if err != nil {
		return err
	}
	if t != MsgPong {
		return fmt.Errorf("netsim: ping answered with %v", t)
	}
	return nil
}
