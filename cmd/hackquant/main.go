// Command hackquant inspects the homomorphic quantizer on synthetic
// data: quantization error, FP16 versus packed versus resident sizes,
// the Eq. (4) identity, and the dequantization work HACK eliminates.
//
//	hackquant -rows 2048 -dh 128 -pi 64 -bits 2
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/hackkv/hack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); errors.Is(err, errUsage) {
		os.Exit(2) // the flag package has already printed the error
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "hackquant:", err)
		os.Exit(1)
	}
}

// errUsage marks flag errors, which exit 2 instead of 1.
var errUsage = errors.New("usage")

// run is the whole CLI minus process exit, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hackquant", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rows  = fs.Int("rows", 2048, "tokens (rows of K/V)")
		dh    = fs.Int("dh", 128, "head dimension")
		pi    = fs.Int("pi", 64, "partition size Π")
		bits  = fs.Int("bits", 2, "KV code width")
		qbits = fs.Int("qbits", 8, "Q/P code width")
		seed  = fs.Int64("seed", 1, "rng seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	rng := rand.New(rand.NewSource(*seed))
	cfgKV := hack.QuantConfig{Bits: *bits, Partition: *pi, Rounding: hack.StochasticRounding, RNG: rng}
	cfgQ := hack.QuantConfig{Bits: *qbits, Partition: *pi, Rounding: hack.StochasticRounding, RNG: rng}

	k := hack.RandNormal(rng, *rows, *dh, 1)
	v := hack.RandNormal(rng, *rows, *dh, 1)
	q := hack.RandNormal(rng, 1, *dh, 1)

	kq, errK := hack.Quantize(k, hack.AlongCols, cfgKV)
	vq, errV := hack.Quantize(v, hack.AlongRows, cfgKV)
	qq, errQ := hack.Quantize(q, hack.AlongCols, cfgQ)
	if err := cmp.Or(errK, errV, errQ); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "K/V: %d tokens x d_h=%d, INT%d codes, Π=%d; Q: INT%d\n",
		*rows, *dh, *bits, *pi, *qbits)

	// Reconstruction error.
	fmt.Fprintf(stdout, "K reconstruction rel error: %.4f\n", hack.RelError(kq.Dequantize(), k))
	fmt.Fprintf(stdout, "V reconstruction rel error: %.4f\n", hack.RelError(vq.Dequantize(), v))

	// Sizes: FP16 vs packed vs resident.
	fp16Bytes := 2 * 2 * (*rows) * (*dh)
	packed := kq.Size(false).Total() + vq.Size(false).Total()
	resident := kq.Size(true).Total() + vq.Size(true).Total()
	fmt.Fprintf(stdout, "FP16 size      %10d bytes\n", fp16Bytes)
	fmt.Fprintf(stdout, "packed (wire)  %10d bytes (%.1f%% compression)\n",
		packed, 100*(1-float64(packed)/float64(fp16Bytes)))
	fmt.Fprintf(stdout, "resident (+SE) %10d bytes\n", resident)

	// The Eq. (4) identity: homomorphic product vs dequantize-then-multiply.
	hom, ops := hack.MatMulTransB(qq, kq, hack.DefaultMatMulOptions())
	ref := hack.ExactMatMulTransB(qq.Dequantize(), kq.Dequantize())
	fmt.Fprintf(stdout, "homomorphic q·Kᵀ vs dequantized: max diff %.2e (algebraically identical)\n",
		hack.MaxAbsDiff(hom, ref))
	fmt.Fprintf(stdout, "homomorphic q·Kᵀ vs exact:       rel err  %.4f\n",
		hack.RelError(hom, hack.ExactMatMulTransB(q, k)))
	fmt.Fprintf(stdout, "int MACs %d, approx flops %d (%.2f%% of matmul)\n",
		ops.IntMACs, ops.ApproxFlops, 100*float64(ops.ApproxFlops)/float64(ops.IntMACs))

	// The per-iteration work HACK eliminates.
	dequantOps := hack.DequantKVOps(*dh, *rows)
	approxOps := hack.DecodeApproxOpsSE(*dh, *rows)
	fmt.Fprintf(stdout, "per decode step per head: dequant %d ops vs SE approximation %d ops (%.0fx less)\n",
		dequantOps, approxOps, float64(dequantOps)/float64(approxOps))
	return nil
}
