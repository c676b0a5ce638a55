package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(stderr.String(), "-rows") {
		t.Errorf("-h printed no flag list:\n%s", stderr.String())
	}
}

func TestUnknownFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want usage error (exit 2)", err)
	}
}

// TestSmallRunPrintsIdentity runs the inspector on a small cache and
// checks the Eq. (4) line: the homomorphic product matches
// dequantize-then-multiply to float rounding.
func TestSmallRunPrintsIdentity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-rows", "256"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	const prefix = "homomorphic q·Kᵀ vs dequantized: max diff "
	i := strings.Index(out, prefix)
	if i < 0 {
		t.Fatalf("no Eq. (4) identity line:\n%s", out)
	}
	var diff float64
	if _, err := fmt.Sscanf(out[i+len(prefix):], "%g", &diff); err != nil {
		t.Fatalf("unparsable max diff: %v\n%s", err, out)
	}
	if diff >= 1e-3 {
		t.Errorf("max diff %.2e, want < 1e-3", diff)
	}
	if strings.Contains(out, "entropy") {
		t.Errorf("output still reports an entropy-coded size:\n%s", out)
	}
}
