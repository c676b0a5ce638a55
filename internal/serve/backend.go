package serve

import (
	"fmt"
	"strings"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/cluster"
	"github.com/hackkv/hack/internal/quant"
)

// BackendForMethod maps a serving-method profile (the cost model's
// view) to its numeric attention-backend factory (the runtime's view),
// so a deployment simulated with some method can be served live with
// the matching kernels:
//
//   - Homomorphic profiles (HACK and variants) run the homomorphic
//     quantized kernels at the profile's Π/SE/RQE, with kernelPar
//     bounding the per-multiplication goroutine fan-out.
//   - CacheGen / KVQuant run the dequantize-before-compute backend at
//     their calibrated group sizes (96 / 112).
//   - FP4/FP6/FP8 run dequantize-before-compute at the format's bit
//     width.
//   - Baseline (and any other non-quantizing profile) runs the FP16
//     backend.
func BackendForMethod(m cluster.Method, kernelPar int) BackendFactory {
	switch {
	case m.Homomorphic:
		return func(seed int64) (attention.Backend, error) {
			cfg := attention.DefaultHACKConfig(seed)
			if m.Pi > 0 {
				cfg.Pi = m.Pi
			}
			cfg.SummationElimination = m.SE
			cfg.RequantizationElimination = m.RQE
			cfg.Parallelism = kernelPar
			return attention.NewHACK(cfg)
		}
	case m.Dequant:
		pi, bits, wire := 64, 2, 1.0
		switch {
		case strings.EqualFold(m.Name, "CacheGen"):
			pi, wire = 96, 0.9
		case strings.EqualFold(m.Name, "KVQuant"):
			pi = 112
		case strings.HasPrefix(strings.ToUpper(m.Name), "FP"):
			if _, err := fmt.Sscanf(strings.ToUpper(m.Name), "FP%d", &bits); err != nil {
				bits = 8
			}
		}
		return func(seed int64) (attention.Backend, error) {
			return attention.NewDequant(attention.DequantConfig{
				MethodName: m.Name, Pi: pi, KVBits: bits,
				Rounding: quant.StochasticRounding, Seed: seed, WireFactor: wire,
			})
		}
	default:
		return func(int64) (attention.Backend, error) { return attention.FP16Backend{}, nil }
	}
}

// PrefixBackendForMethod is BackendForMethod for a deployment with the
// shared-prefix KV tier, rejecting profiles whose caches cannot be
// paged: page export restores quantized partitions directly, which the
// dequantize-before-compute and FP16 backends cannot express, and the
// profile must run requantization elimination (pages hold complete
// partitions only).
func PrefixBackendForMethod(m cluster.Method, kernelPar int) (BackendFactory, error) {
	if !m.Homomorphic {
		return nil, fmt.Errorf("serve: prefix caching requires a homomorphic method, not %q", m.Name)
	}
	if !m.RQE {
		return nil, fmt.Errorf("serve: prefix caching requires requantization elimination, which %q disables", m.Name)
	}
	return BackendForMethod(m, kernelPar), nil
}
