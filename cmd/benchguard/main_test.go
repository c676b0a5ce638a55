package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, name string, speedups map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(map[string]any{
		"go_version": "go1.22", "num_cpu": 1, "speedups_vs_scalar": speedups,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func exec(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

func TestWithinToleranceOK(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0, "prefill_pi64": 8.0})
	fresh := writeReport(t, "fresh.json", map[string]float64{"decode_pi64": 3.2, "prefill_pi64": 9.0})
	out, err := exec(t, "-baseline", base, "-fresh", fresh)
	if err != nil {
		t.Fatalf("within tolerance failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "all 2 speedups within tolerance") {
		t.Errorf("missing pass summary:\n%s", out)
	}
}

func TestRegressionFails(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0})
	fresh := writeReport(t, "fresh.json", map[string]float64{"decode_pi64": 2.0}) // -50% < -30%
	out, err := exec(t, "-baseline", base, "-fresh", fresh)
	if err == nil {
		t.Fatalf("regression passed:\n%s", out)
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Fatalf("regression misclassified as usage error: %v", err)
	}
	if !strings.Contains(out, "FAIL decode_pi64") {
		t.Errorf("missing FAIL line:\n%s", out)
	}
}

func TestFasterOnlyWarns(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0})
	fresh := writeReport(t, "fresh.json", map[string]float64{"decode_pi64": 9.0}) // +125%
	out, err := exec(t, "-baseline", base, "-fresh", fresh)
	if err != nil {
		t.Fatalf("faster run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "WARN decode_pi64") {
		t.Errorf("missing WARN line:\n%s", out)
	}
}

func TestMissingKeyFails(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0, "gone": 2.0})
	fresh := writeReport(t, "fresh.json", map[string]float64{"decode_pi64": 4.0})
	if out, err := exec(t, "-baseline", base, "-fresh", fresh); err == nil {
		t.Fatalf("missing key passed:\n%s", out)
	}
}

func TestNewKeyPassesAndIsReported(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0})
	fresh := writeReport(t, "fresh.json", map[string]float64{"decode_pi64": 4.0, "brand_new": 3.0})
	out, err := exec(t, "-baseline", base, "-fresh", fresh)
	if err != nil {
		t.Fatalf("new key failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "new  brand_new") {
		t.Errorf("missing new-key line:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, // -fresh required
		{"-fresh", "x", "-tol", "0"},
		{"-fresh", "x", "-tol", "1.5"},
		{"-no-such-flag"},
	} {
		_, err := exec(t, args...)
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Errorf("args %v: err = %v, want usage error", args, err)
		}
	}
}

func TestUnreadableReportIsRuntimeError(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0})
	_, err := exec(t, "-baseline", base, "-fresh", filepath.Join(t.TempDir(), "missing.json"))
	if err == nil {
		t.Fatal("expected an error")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Fatalf("runtime error misclassified as usage error: %v", err)
	}
}

// TestGuardsCommittedBaseline sanity-checks the committed baseline file
// itself parses and has the four tracked speedups.
func TestGuardsCommittedBaseline(t *testing.T) {
	r, err := load(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"decode_pi32", "decode_pi128", "prefill_pi32", "prefill_pi128"} {
		if r.Speedups[k] <= 1 {
			t.Errorf("committed baseline speedup %s = %v, want > 1x", k, r.Speedups[k])
		}
	}
}

// TestMedianOutvotesOneLowRun: three fresh reports, one of them a low
// outlier beyond the band; the median is in band, so the gate passes.
func TestMedianOutvotesOneLowRun(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0})
	a := writeReport(t, "a.json", map[string]float64{"decode_pi64": 4.1})
	b := writeReport(t, "b.json", map[string]float64{"decode_pi64": 1.0}) // -75%
	c := writeReport(t, "c.json", map[string]float64{"decode_pi64": 3.9})
	out, err := exec(t, "-baseline", base, "-fresh", a+","+b+","+c)
	if err != nil {
		t.Fatalf("one low run in three failed the gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok   decode_pi64") || !strings.Contains(out, "median of 3 fresh") {
		t.Errorf("missing median verdict:\n%s", out)
	}
}

// TestMedianFailsOnTwoLowRuns: two of three reports low put the median
// below the band.
func TestMedianFailsOnTwoLowRuns(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0})
	a := writeReport(t, "a.json", map[string]float64{"decode_pi64": 2.0})
	b := writeReport(t, "b.json", map[string]float64{"decode_pi64": 1.0})
	c := writeReport(t, "c.json", map[string]float64{"decode_pi64": 4.0})
	out, err := exec(t, "-baseline", base, "-fresh", a+","+b+","+c)
	if err == nil {
		t.Fatalf("two low runs in three passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL decode_pi64") {
		t.Errorf("missing FAIL line:\n%s", out)
	}
}

// TestMissingKeyInOneReportFails: a baseline key absent from any one of
// the fresh reports fails, even when the others carry it in band.
func TestMissingKeyInOneReportFails(t *testing.T) {
	base := writeReport(t, "base.json", map[string]float64{"decode_pi64": 4.0, "prefill_pi64": 8.0})
	a := writeReport(t, "a.json", map[string]float64{"decode_pi64": 4.0, "prefill_pi64": 8.0})
	b := writeReport(t, "b.json", map[string]float64{"decode_pi64": 4.0})
	c := writeReport(t, "c.json", map[string]float64{"decode_pi64": 4.0, "prefill_pi64": 8.0})
	out, err := exec(t, "-baseline", base, "-fresh", a+","+b+","+c)
	if err == nil {
		t.Fatalf("key missing from one report passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL prefill_pi64") || !strings.Contains(out, "missing from a fresh report") {
		t.Errorf("missing FAIL line:\n%s", out)
	}
}
