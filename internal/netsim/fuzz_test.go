package netsim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// fuzzSeedFrame serializes one real KV frame for the fuzz corpus.
func fuzzSeedFrame(f *testing.F) []byte {
	f.Helper()
	rng := rand.New(rand.NewSource(1))
	cfg := quant.Config{Bits: 2, Partition: 16, Rounding: quant.NearestRounding}
	k := quant.MustQuantize(tensor.RandNormal(rng, 24, 32, 1), quant.AlongCols, cfg)
	v := quant.MustQuantize(tensor.RandNormal(rng, 16, 32, 1), quant.AlongRows, cfg)
	tail := make([]float32, 2*32)
	for i := range tail {
		tail[i] = rng.Float32()
	}
	fr, err := FrameFromTensors(7, 1, 2, 99, k, v, tail)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFrameReadFrom asserts the wire decoder's contract on arbitrary
// bytes: malformed frames must error, never panic, and any frame it
// accepts must re-serialize to the exact bytes it was parsed from
// (the codec is canonical).
func FuzzFrameReadFrom(f *testing.F) {
	valid := fuzzSeedFrame(f)
	f.Add(valid)
	// Truncations and bit flips around every boundary the parser checks:
	// magic, version, length field, header, chunk table, CRC trailer.
	f.Add(valid[:4])
	f.Add(valid[:12])
	f.Add(valid[:len(valid)-4])
	for _, off := range []int{0, 4, 8, 12, 30, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr KVFrame
		n, err := fr.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if n <= 0 || n > int64(len(data)) {
			t.Fatalf("accepted frame reports %d bytes read of %d available", n, len(data))
		}
		var out bytes.Buffer
		m, err := fr.WriteTo(&out)
		if err != nil {
			t.Fatalf("re-serializing an accepted frame failed: %v", err)
		}
		if m != n || !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("accepted frame is not canonical: read %d bytes, rewrote %d different ones", n, m)
		}
	})
}

// FuzzWireReadMessage asserts the conn-framing decoder's contract on
// arbitrary bytes: malformed messages (bad type, oversized length,
// corrupt CRC, truncation) must error, never panic, and any message it
// accepts must re-frame to the exact bytes it was parsed from.
func FuzzWireReadMessage(f *testing.F) {
	var seed bytes.Buffer
	hello := Hello{Role: "prefill", NodeID: "p0", Method: "hack-pi64",
		ModelSeed: 7, SpecName: "toy", Vocab: 128, Draining: true}
	helloJSON, err := json.Marshal(hello.seal())
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteMessage(&seed, MsgHello, helloJSON); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), seed.Bytes()...))
	frameMsg := fuzzSeedFrame(f)
	seed.Reset()
	if err := WriteMessage(&seed, MsgFrame, frameMsg); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	if err := WriteMessage(&seed, MsgPing, nil); err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), seed.Bytes()...)
	f.Add(valid)
	f.Add(valid[:3])
	for _, off := range []int{0, 1, 4, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x07}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadMessage(r)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		consumed := len(data) - r.Len()
		var out bytes.Buffer
		if err := WriteMessage(&out, typ, payload); err != nil {
			t.Fatalf("re-framing an accepted message failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("accepted message is not canonical (%d bytes consumed)", consumed)
		}
		if typ == MsgHello || typ == MsgHelloAck {
			_, _ = ParseHello(payload) // must not panic either way
		}
	})
}
