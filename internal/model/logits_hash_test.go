package model

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/quant"
)

// logitsHashLengths are the prompt lengths the logits hash covers:
// single-token and sub-partition prompts, exact and ragged partition
// multiples at every Π below, and the long prompts of the serving
// benchmark.
var logitsHashLengths = []int{1, 7, 31, 64, 65, 100, 394, 600, 881}

// logitsHash runs a prefill plus four greedy decode steps for every
// prompt length and folds the exact bits of every logit into one FNV-1a
// hash.
func logitsHash(t *testing.T, b attention.Backend) uint64 {
	t.Helper()
	spec := Toy()
	m, err := NewTransformer(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	h := fnv.New64a()
	var buf [4]byte
	fold := func(lg []float32) {
		for _, v := range lg {
			u := math.Float32bits(v)
			buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(buf[:])
		}
	}
	for _, L := range logitsHashLengths {
		s, err := m.NewSession(b)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := s.PrefillLogits(randPrompt(rng, L, spec.Vocab))
		if err != nil {
			t.Fatal(err)
		}
		fold(lg)
		for step := 0; step < 4; step++ {
			if lg, err = s.DecodeLogits(argmax(lg)); err != nil {
				t.Fatal(err)
			}
			fold(lg)
		}
	}
	return h.Sum64()
}

// TestLogitsHashPinned pins the exact logits of every attention backend
// — and of HACK at every shipped partition size, with and without
// summation elimination, serial and fanned out — over prompts of 1..881
// tokens. The constants were taken before prefill learned to skip the
// masked half of the causal score matrix and before the dense
// projections moved to the SIMD GEMM: both are exact rewrites, so any
// change here is a numerics change, not a speedup.
func TestLogitsHashPinned(t *testing.T) {
	hackCfg := func(pi int, se bool, seed int64) attention.HACKConfig {
		cfg := attention.DefaultHACKConfig(seed)
		cfg.Pi, cfg.SummationElimination = pi, se
		return cfg
	}
	serial := hackCfg(64, true, 2)
	serial.Parallelism = 1
	kvquant, err := attention.NewDequant(attention.DequantConfig{MethodName: "KVQuant", Pi: 112, KVBits: 2,
		Rounding: quant.StochasticRounding, Seed: 4, WireFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		backend attention.Backend
		want    uint64
	}{
		{"Exact", attention.ExactBackend{}, 0x4ba72de1ef9c2c83},
		{"FP16", attention.FP16Backend{}, 0x85f1543c161be285},
		{"KVQuant", kvquant, 0xd803fc29fdfe6826},
		{"HACK/pi32", mustHACK(t, hackCfg(32, true, 1)), 0xf3fefc8707ce5c8a},
		{"HACK/pi64", mustHACK(t, hackCfg(64, true, 2)), 0xe7995159fa098a54},
		{"HACK/pi128", mustHACK(t, hackCfg(128, true, 3)), 0xaa29425a6211881a},
		{"HACK/pi64/noSE", mustHACK(t, hackCfg(64, false, 2)), 0xe7995159fa098a54},
		{"HACK/pi64/serial", mustHACK(t, serial), 0xe7995159fa098a54},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := logitsHash(t, c.backend); got != c.want {
				t.Errorf("logits hash %#x, want %#x", got, c.want)
			}
		})
	}
}

func mustHACK(t *testing.T, cfg attention.HACKConfig) attention.Backend {
	t.Helper()
	b, err := attention.NewHACK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
