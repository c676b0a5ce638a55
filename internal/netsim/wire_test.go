package netsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"testing"
)

func TestWireMessageRoundTrip(t *testing.T) {
	payloads := map[MsgType][]byte{
		MsgPrefill:     []byte(`{"request_id":1}`),
		MsgFrame:       bytes.Repeat([]byte{0xab}, 1000),
		MsgTransferEnd: nil,
		MsgPing:        nil,
	}
	var buf bytes.Buffer
	for typ, p := range payloads {
		buf.Reset()
		if err := WriteMessage(&buf, typ, p); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		got, payload, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if got != typ || !bytes.Equal(payload, p) {
			t.Fatalf("%v round-trip: got %v with %d bytes", typ, got, len(payload))
		}
	}
}

func TestWireMessageRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgToken, []byte(`{"id":42}`)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one payload byte: the CRC trailer must catch it.
	mut := append([]byte(nil), raw...)
	mut[7] ^= 0x01
	if _, _, err := ReadMessage(bytes.NewReader(mut)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt payload accepted: %v", err)
	}

	// Flip the type byte: either an unknown type or a checksum failure.
	mut = append([]byte(nil), raw...)
	mut[0] = 0xee
	if _, _, err := ReadMessage(bytes.NewReader(mut)); err == nil {
		t.Fatal("corrupt type accepted")
	}

	// Oversized length field fails before allocating.
	var head [5]byte
	head[0] = byte(MsgFrame)
	head[1], head[2], head[3], head[4] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadMessage(bytes.NewReader(head[:])); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized length accepted: %v", err)
	}

	// Truncation surfaces an io error, not a panic.
	if _, _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, _, err := ReadMessage(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestWireMessageRejectsInvalidType(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msgTypeEnd, nil); err == nil {
		t.Fatal("sent a message past the valid type range")
	}
	if err := WriteMessage(&buf, 0, nil); err == nil {
		t.Fatal("sent message type 0")
	}

	// Type bytes 12–17 were the retired prefix-cache node protocol. A
	// well-formed message (valid length and CRC) carrying one must still
	// read as corruption, not as a message.
	for typ := byte(12); typ <= 17; typ++ {
		payload := []byte(`{"seed":1}`)
		msg := []byte{typ, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(msg[1:], uint32(len(payload)))
		msg = append(msg, payload...)
		msg = binary.LittleEndian.AppendUint32(msg, crc32.ChecksumIEEE(append([]byte{typ}, payload...)))
		if _, _, err := ReadMessage(bytes.NewReader(msg)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("type %d: ReadMessage err %v, want ErrFrameCorrupt", typ, err)
		}
	}
}

func TestHandshake(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	initiator := Hello{Role: "router", NodeID: "r0", Method: "hack-pi64",
		ModelSeed: 7, SpecName: "toy", Vocab: 128}
	responder := Hello{Role: "decode", NodeID: "d0", Method: "hack-pi64",
		ModelSeed: 7, SpecName: "toy", Vocab: 128, Draining: true}

	done := make(chan error, 1)
	var gotPeer Hello
	go func() {
		peer, err := AcceptHandshake(server, responder, func(h Hello) error {
			if h.Method != responder.Method {
				return errors.New("method mismatch")
			}
			return nil
		})
		gotPeer = peer
		done <- err
	}()
	peer, err := Handshake(client, initiator)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if peer.Role != "decode" || peer.NodeID != "d0" || !peer.Draining {
		t.Fatalf("initiator saw peer %+v", peer)
	}
	if gotPeer.Role != "router" || gotPeer.NodeID != "r0" {
		t.Fatalf("responder saw peer %+v", gotPeer)
	}

	// Keepalive after the handshake.
	pingDone := make(chan error, 1)
	go func() {
		typ, _, err := ReadMessage(server)
		if err == nil && typ != MsgPing {
			err = errors.New("expected ping")
		}
		if err == nil {
			err = WriteMessage(server, MsgPong, nil)
		}
		pingDone <- err
	}()
	if err := Ping(client); err != nil {
		t.Fatal(err)
	}
	if err := <-pingDone; err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeRejectsMismatch(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	initErr := make(chan error, 1)
	go func() {
		_, err := Handshake(client, Hello{Role: "router", Method: "fp16"})
		initErr <- err
	}()
	_, err := AcceptHandshake(server, Hello{Role: "decode", Method: "hack-pi64"},
		func(h Hello) error {
			if h.Method != "hack-pi64" {
				return errors.New("method mismatch: " + h.Method)
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "method mismatch") {
		t.Fatalf("mismatched handshake accepted: %v", err)
	}
	// The initiator learns it was refused (not that the peer died), with
	// the responder's reason attached.
	if err := <-initErr; !errors.Is(err, ErrHandshakeRefused) ||
		!strings.Contains(err.Error(), "method mismatch") {
		t.Fatalf("initiator saw %v, want ErrHandshakeRefused with reason", err)
	}
}

func TestParseHelloRejectsBadVersionAndMagic(t *testing.T) {
	if _, err := ParseHello([]byte(`{"magic":1,"version":1}`)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ParseHello([]byte(`{"magic":1212236619,"version":99}`)); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := ParseHello([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON hello accepted")
	}
}

// TestHandshakeRefusesOtherWireVersion pins the mixed-fleet guard: a
// peer speaking another wire version (a node that ships caches under a
// different rounding layout) is refused at the handshake in both
// directions, surfacing ErrHandshakeRefused rather than a silently
// divergent stream.
func TestHandshakeRefusesOtherWireVersion(t *testing.T) {
	oldHello := []byte(`{"magic":1212236619,"version":1,"role":"router","method":"HACK"}`)

	// An old initiator meets a current responder: the responder refuses,
	// and says so on the wire.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	accepted := make(chan error, 1)
	go func() {
		_, err := AcceptHandshake(server, Hello{Role: "decode", Method: "HACK"}, nil)
		accepted <- err
	}()
	if err := WriteMessage(client, MsgHello, oldHello); err != nil {
		t.Fatal(err)
	}
	typ, reason, err := ReadMessage(client)
	if err != nil || typ != MsgHelloErr || !strings.Contains(string(reason), "version") {
		t.Fatalf("old initiator got %v %q (%v), want a version refusal", typ, reason, err)
	}
	if err := <-accepted; err == nil {
		t.Fatal("responder accepted a version-1 peer")
	}

	// A current initiator meets an old responder that acks with its own
	// version: the initiator reports a refusal.
	client2, server2 := net.Pipe()
	defer client2.Close()
	defer server2.Close()
	go func() {
		if _, _, err := ReadMessage(server2); err == nil {
			_ = WriteMessage(server2, MsgHelloAck, oldHello)
		}
	}()
	if _, err := Handshake(client2, Hello{Role: "router", Method: "HACK"}); !errors.Is(err, ErrHandshakeRefused) {
		t.Fatalf("version-1 responder: %v, want ErrHandshakeRefused", err)
	}
}

// TestFrameVersionCompat pins the one frame version: frames encode as
// version 2 and round-trip RNGDraws, and a head naming any other
// version — the retired version 1 included — is refused as corrupt.
func TestFrameVersionCompat(t *testing.T) {
	fr := KVFrame{
		RequestID: 3, Layer: 1, Head: 0, FirstToken: 55, RNGDraws: 123456,
		Bits: 2, Pi: 4, KRows: 4, Cols: 4, VRows: 4,
		KCodes: []byte{1, 2, 3, 4}, VCodes: []byte{5, 6, 7, 8},
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	if v := binary.LittleEndian.Uint32(encoded[4:]); v != 2 {
		t.Fatalf("frame encoded as version %d, want 2", v)
	}
	var got KVFrame
	if _, err := got.ReadFrom(bytes.NewReader(encoded)); err != nil {
		t.Fatal(err)
	}
	if got.RNGDraws != 123456 {
		t.Fatalf("round-trip draws %d", got.RNGDraws)
	}

	for _, v := range []uint32{1, 3, 9} {
		other := append([]byte(nil), encoded...)
		binary.LittleEndian.PutUint32(other[4:], v)
		if _, err := new(KVFrame).ReadFrom(bytes.NewReader(other)); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("version-%d head: %v, want ErrFrameCorrupt", v, err)
		}
	}
}
