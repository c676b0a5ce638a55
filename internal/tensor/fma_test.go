package tensor

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// fmaPackages are the packages whose floats feed a served token: every
// one must compile to the same products and sums on every architecture.
var fmaPackages = []string{
	"github.com/hackkv/hack/internal/tensor",
	"github.com/hackkv/hack/internal/hack",
	"github.com/hackkv/hack/internal/quant",
	"github.com/hackkv/hack/internal/model",
	"github.com/hackkv/hack/internal/attention",
	"github.com/hackkv/hack/internal/fp16",
}

// fusedOp matches an arm64 fused multiply-add or -subtract in the
// compiler's -S listing, e.g. "(…/hack.go:281)	FMADDS	F1, F2, F3, F4".
var fusedOp = regexp.MustCompile(`\(([^()]+:\d+)\)\s+(FN?M(?:ADD|SUB)[SD])\b`)

// TestNoFusedMultiplyAdd holds the kernel packages to one float result on
// every host. The Go spec lets a compiler fuse x*y + z into one rounding
// unless an explicit conversion rounds the product first; amd64 never
// fuses, arm64 does, so an unconverted product would make arm64 hosts
// compute different logits from amd64 ones. The test cross-compiles the
// packages for arm64 with the local toolchain and fails on any fused
// instruction, naming its source line. Write float32(a*b) + c (float64
// likewise) wherever a product meets a sum.
func TestNoFusedMultiplyAdd(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(gobin, append([]string{"build", "-gcflags=-S"}, fmaPackages...)...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	listing := string(out)
	for _, p := range fmaPackages {
		if !strings.Contains(listing, "# "+p+"\n") {
			t.Fatalf("no arm64 assembly listed for %s", p)
		}
	}
	for _, m := range fusedOp.FindAllStringSubmatch(listing, -1) {
		t.Errorf("%s: %s", m[1], m[2])
	}
}
