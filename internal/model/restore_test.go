package model

import (
	"bytes"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/netsim"
)

// TestRestoreSessionContinuesBitIdentically is the disaggregated handoff
// in miniature: prefill a session on the "prefill instance", ship every
// head's cache through the real KVFrame codec, restore a fresh session
// on the "decode instance", and require the continued greedy decode to
// match a single-process run token for token — stochastic rounding and
// all, with no quantizer state shipped (the draw count is 0).
func TestRestoreSessionContinuesBitIdentically(t *testing.T) {
	spec := Toy()
	const modelSeed, quantSeed = 11, 7
	const maxNew = 24

	m, err := NewTransformer(spec, modelSeed)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := attention.NewHACK(attention.DefaultHACKConfig(quantSeed))
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}

	// Reference: single-process prefill + decode.
	ref, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompt, maxNew, -1)
	if err != nil {
		t.Fatal(err)
	}

	// Prefill instance: prefill only, then export each head over the
	// frame codec.
	src, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	firstTok, err := src.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	if firstTok != want[0] {
		t.Fatalf("prefill token %d, reference %d", firstTok, want[0])
	}

	heads := make([][]attention.Head, spec.Layers)
	for l := 0; l < spec.Layers; l++ {
		heads[l] = make([]attention.Head, spec.Heads)
		for h := 0; h < spec.Heads; h++ {
			exp, ok := src.Head(l, h).(attention.WireExporter)
			if !ok {
				t.Fatalf("layer %d head %d does not export", l, h)
			}
			k, v, tail, draws, err := exp.ExportWire()
			if err != nil {
				t.Fatal(err)
			}
			fr, err := netsim.FrameFromTensors(1, l, h, firstTok, k, v, tail.Data)
			if err != nil {
				t.Fatal(err)
			}
			fr.RNGDraws = draws

			// Round-trip the actual bytes.
			var buf bytes.Buffer
			if _, err := fr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			var recv netsim.KVFrame
			if _, err := recv.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			if draws != 0 || recv.RNGDraws != 0 {
				t.Fatalf("RNG draw count %d shipped as %d, want 0", draws, recv.RNGDraws)
			}

			rk, rv, rtail, err := recv.Tensors()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := backend.RestoreHead(spec.HeadDim, rk, rv, rtail, recv.RNGDraws)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Len() != len(prompt) {
				t.Fatalf("restored head has %d tokens, want %d", restored.Len(), len(prompt))
			}
			heads[l][h] = restored
		}
	}

	// Decode instance: restore and continue.
	dst, err := m.RestoreSession(backend, heads)
	if err != nil {
		t.Fatal(err)
	}
	got := []int{firstTok}
	tok := firstTok
	for len(got) < maxNew {
		tok, err = dst.Decode(tok)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
	}

	if len(got) != len(want) {
		t.Fatalf("restored decode produced %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged after restore: got %d, want %d\ngot  %v\nwant %v",
				i, got[i], want[i], got, want)
		}
	}
}

// TestRestoreRejectsBadShapes covers the refusal paths: mismatched
// layer/head grids, non-RQE exports, and caches shipped with an RNG
// draw count (a sequential-stream encoder's frames).
func TestRestoreRejectsBadShapes(t *testing.T) {
	spec := Toy()
	m, err := NewTransformer(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := attention.NewHACK(attention.DefaultHACKConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RestoreSession(backend, nil); err == nil {
		t.Fatal("restored a session with no heads")
	}
	if _, err := m.RestoreSession(backend, make([][]attention.Head, spec.Layers)); err == nil {
		t.Fatal("restored a session with empty head rows")
	}

	cfg := attention.DefaultHACKConfig(1)
	cfg.RequantizationElimination = false
	noRQE, err := attention.NewHACK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	head, err := noRQE.NewHead(spec.HeadDim)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := head.(attention.WireExporter).ExportWire(); err == nil {
		t.Fatal("exported a quantized-tail ablation cache")
	}
	if _, err := noRQE.RestoreHead(spec.HeadDim, nil, nil, nil, 0); err == nil {
		t.Fatal("restored under the quantized-tail ablation")
	}

	src, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Prefill([]int{3, 1, 4, 1, 5}); err != nil {
		t.Fatal(err)
	}
	k, v, tail, _, err := src.Head(0, 0).(attention.WireExporter).ExportWire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.RestoreHead(spec.HeadDim, k, v, tail, 17); err == nil {
		t.Fatal("restored a cache shipped with an RNG draw count")
	}
}
