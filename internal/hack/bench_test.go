package hack_test

// Kernel microbenchmarks: prefill- and decode-shaped homomorphic matmuls
// at Π=32/128 against the retained scalar reference, the quantizer, and
// the end-to-end attention decode step. `go run ./cmd/kernelbench` runs
// the same operand shapes outside the testing framework and writes the
// BENCH_kernels.json trajectory file the README documents.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/hack"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// Decode shape (acceptance shape): one 8-bit query row against a 4096-
// token 2-bit K cache, 1×128 · (4096×128)ᵀ.
func decodeOperands(pi int) (a, kT *quant.Tensor) {
	rng := rand.New(rand.NewSource(1))
	cfgQ := quant.Config{Bits: 8, Partition: pi, Rounding: quant.NearestRounding}
	cfgK := quant.Config{Bits: 2, Partition: pi, Rounding: quant.NearestRounding}
	a = quant.MustQuantize(tensor.RandNormal(rng, 1, 128, 1), quant.AlongCols, cfgQ)
	kT = quant.MustQuantize(tensor.RandNormal(rng, 4096, 128, 1), quant.AlongCols, cfgK)
	return a, kT
}

// Prefill shape: a 256-row 8-bit P block against a 2048×128 2-bit V.
func prefillOperands(pi int) (p, v *quant.Tensor) {
	rng := rand.New(rand.NewSource(2))
	cfgP := quant.Config{Bits: 8, Partition: pi, Rounding: quant.NearestRounding}
	cfgV := quant.Config{Bits: 2, Partition: pi, Rounding: quant.NearestRounding}
	p = quant.MustQuantize(tensor.RandNormal(rng, 256, 2048, 1), quant.AlongCols, cfgP)
	v = quant.MustQuantize(tensor.RandNormal(rng, 2048, 128, 1), quant.AlongRows, cfgV)
	return p, v
}

func benchTransB(b *testing.B, pi int, fn func(a, kT *quant.Tensor)) {
	b.Helper()
	a, kT := decodeOperands(pi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(a, kT)
	}
}

func benchMatMul(b *testing.B, pi int, fn func(p, v *quant.Tensor)) {
	b.Helper()
	p, v := prefillOperands(pi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(p, v)
	}
}

func BenchmarkMatMulTransBDecodePi32(b *testing.B) {
	dst := &tensor.Matrix{}
	benchTransB(b, 32, func(a, kT *quant.Tensor) {
		hack.MatMulTransBInto(dst, a, kT, hack.DefaultOptions())
	})
}

func BenchmarkMatMulTransBDecodePi128(b *testing.B) {
	dst := &tensor.Matrix{}
	benchTransB(b, 128, func(a, kT *quant.Tensor) {
		hack.MatMulTransBInto(dst, a, kT, hack.DefaultOptions())
	})
}

func BenchmarkMatMulTransBDecodeScalarPi128(b *testing.B) {
	benchTransB(b, 128, func(a, kT *quant.Tensor) {
		hack.MatMulTransBScalar(a, kT, hack.DefaultOptions())
	})
}

func BenchmarkMatMulPrefillPi32(b *testing.B) {
	dst := &tensor.Matrix{}
	benchMatMul(b, 32, func(p, v *quant.Tensor) {
		hack.MatMulInto(dst, p, v, hack.DefaultOptions())
	})
}

func BenchmarkMatMulPrefillPi128(b *testing.B) {
	dst := &tensor.Matrix{}
	benchMatMul(b, 128, func(p, v *quant.Tensor) {
		hack.MatMulInto(dst, p, v, hack.DefaultOptions())
	})
}

func BenchmarkMatMulPrefillScalarPi128(b *testing.B) {
	benchMatMul(b, 128, func(p, v *quant.Tensor) {
		hack.MatMulScalar(p, v, hack.DefaultOptions())
	})
}

func BenchmarkQuantize8BitPi32(b *testing.B) { benchQuantize(b, 8, 32) }

func BenchmarkQuantize2BitPi128(b *testing.B) { benchQuantize(b, 2, 128) }

func benchQuantize(b *testing.B, bits, pi int) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	m := tensor.RandNormal(rng, 512, 128, 1)
	cfg := quant.Config{Bits: bits, Partition: pi, Rounding: quant.NearestRounding}
	var t *quant.Tensor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		t, err = quant.QuantizeInto(t, m, quant.AlongCols, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttentionDecode measures one full HACK attention decode step
// — quantize Q, homomorphic Q·Kᵀ, softmax, homomorphic P·V, cache append
// — on a prefilled head. allocs/op is the headline: the scratch-reuse
// paths keep it at ~0.
func BenchmarkAttentionDecode(b *testing.B) {
	for _, pi := range []int{32, 128} {
		b.Run(map[int]string{32: "Pi32", 128: "Pi128"}[pi], func(b *testing.B) {
			cfg := attention.DefaultHACKConfig(11)
			cfg.Pi = pi
			backend, err := attention.NewHACK(cfg)
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, backend, 128, 2048)
		})
	}
}

// BenchmarkAttentionDecodeServed is one decode step at the shape the
// serving benchmark runs: the Toy model's d_h 32 head, HACK at Π 64,
// over a chat-length (128) and a long (1024) context. There d_h < Π, so
// Q·Kᵀ takes the blocked tile over one partial partition, and the
// single-row P·V takes the paired-row sweep. FP16 is the baseline
// HACK's decode is compared against.
func BenchmarkAttentionDecodeServed(b *testing.B) {
	for _, c := range []struct {
		name    string
		backend func() (attention.Backend, error)
	}{
		{"HACK", func() (attention.Backend, error) { return attention.NewHACK(attention.DefaultHACKConfig(11)) }},
		{"FP16", func() (attention.Backend, error) { return attention.FP16Backend{}, nil }},
	} {
		for _, l := range []int{128, 1024} {
			b.Run(fmt.Sprintf("%s/ctx%d", c.name, l), func(b *testing.B) {
				backend, err := c.backend()
				if err != nil {
					b.Fatal(err)
				}
				benchDecode(b, backend, 32, l)
			})
		}
	}
}

// benchDecode times one-token decode steps of a head of width dh over a
// context of l to l+64 tokens: every 64 steps, untimed, it prefills a
// fresh head, so the context does not grow with b.N.
func benchDecode(b *testing.B, backend attention.Backend, dh, l int) {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	q := tensor.RandNormal(rng, l, dh, 1)
	k := tensor.RandNormal(rng, l, dh, 1)
	v := tensor.RandNormal(rng, l, dh, 1)
	dq := tensor.RandNormal(rng, 1, dh, 1)
	dk := tensor.RandNormal(rng, 1, dh, 1)
	dv := tensor.RandNormal(rng, 1, dh, 1)
	var h attention.Head
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			var err error
			if h, err = backend.NewHead(dh); err != nil {
				b.Fatal(err)
			}
			if _, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
				b.Fatal(err)
			}
			// Warm the head's scratch high-water marks.
			if _, _, err := h.Decode(dq, dk, dv); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, _, err := h.Decode(dq, dk, dv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttentionDecodeDequant is the baseline counterpart: the
// CacheGen-style head pays a full-cache dequantization every step.
func BenchmarkAttentionDecodeDequant(b *testing.B) {
	backend, err := attention.NewDequant(attention.DequantConfig{
		MethodName: "CacheGen", Pi: 96, KVBits: 2,
		Rounding: quant.StochasticRounding, Seed: 12, WireFactor: 0.9,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchDecode(b, backend, 128, 2048)
}
