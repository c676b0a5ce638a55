// Command benchguard is the kernel-bench regression gate CI runs: it
// compares fresh cmd/kernelbench reports against the committed
// BENCH_kernels.json baseline on the fast-over-scalar speedups — the
// one metric that is portable across hosts and operand sizes — and
// fails when any speedup regressed beyond the tolerance.
//
//	benchguard -baseline BENCH_kernels.json -fresh a.json,b.json,c.json -tol 0.30
//
// -fresh takes a comma-separated list of reports; each speedup is judged
// on its median across them, so one noisy run cannot trip the gate. A
// median below baseline·(1−tol) is a regression (exit 1); one above
// baseline·(1+tol) only warns, so an improved kernel eventually gets a
// refreshed committed baseline. A baseline key missing from any fresh
// report fails; extra fresh keys (new benchmarks) are reported and pass.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	var ue usageError
	if errors.As(err, &ue) {
		if !ue.quiet {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
		}
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

// usageError marks flag-style errors that exit 2 instead of 1, per the
// CLI convention.
type usageError struct {
	err   error
	quiet bool
}

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// report is the slice of the kernelbench JSON schema the guard reads.
type report struct {
	GoVersion string             `json:"go_version"`
	NumCPU    int                `json:"num_cpu"`
	Speedups  map[string]float64 `json:"speedups_vs_scalar"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Speedups) == 0 {
		return nil, fmt.Errorf("%s: no speedups_vs_scalar section", path)
	}
	return &r, nil
}

// run executes the comparison, writing the verdict table to stdout. It
// is the whole CLI minus process exit, so tests drive it without
// os/exec.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath  = fs.String("baseline", "BENCH_kernels.json", "committed baseline report")
		freshList = fs.String("fresh", "", "comma-separated fresh kernelbench reports to judge on their median (required)")
		tol       = fs.Float64("tol", 0.30, "allowed fractional slowdown before failing (0.30 = -30%)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err: err, quiet: true}
	}
	if *freshList == "" {
		return usageError{err: fmt.Errorf("-fresh is required")}
	}
	if *tol <= 0 || *tol >= 1 {
		return usageError{err: fmt.Errorf("tolerance %v outside (0, 1)", *tol)}
	}

	base, err := load(*basePath)
	if err != nil {
		return err
	}
	var fresh []*report
	for _, p := range strings.Split(*freshList, ",") {
		r, err := load(p)
		if err != nil {
			return err
		}
		fresh = append(fresh, r)
	}

	keys := make([]string, 0, len(base.Speedups))
	for k := range base.Speedups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	fmt.Fprintf(stdout, "kernel speedup guard: baseline %s (%d CPU) vs median of %d fresh %s (%d CPU), tolerance ±%.0f%%\n",
		base.GoVersion, base.NumCPU, len(fresh), fresh[0].GoVersion, fresh[0].NumCPU, 100**tol)
	regressions := 0
	for _, k := range keys {
		b := base.Speedups[k]
		f, ok := median(fresh, k)
		if !ok {
			fmt.Fprintf(stdout, "  FAIL %-16s missing from a fresh report\n", k)
			regressions++
			continue
		}
		delta := f/b - 1
		switch {
		case f < b*(1-*tol):
			fmt.Fprintf(stdout, "  FAIL %-16s %6.2fx -> %6.2fx (%+.0f%%): slower than tolerance\n",
				k, b, f, 100*delta)
			regressions++
		case f > b*(1+*tol):
			fmt.Fprintf(stdout, "  WARN %-16s %6.2fx -> %6.2fx (%+.0f%%): faster than baseline band; "+
				"consider refreshing the committed baseline\n", k, b, f, 100*delta)
		default:
			fmt.Fprintf(stdout, "  ok   %-16s %6.2fx -> %6.2fx (%+.0f%%)\n", k, b, f, 100*delta)
		}
	}
	extra := 0
	for k := range fresh[0].Speedups {
		if _, ok := base.Speedups[k]; !ok {
			f, _ := median(fresh, k)
			fmt.Fprintf(stdout, "  new  %-16s %6.2fx (not in baseline)\n", k, f)
			extra++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d of %d speedups regressed beyond ±%.0f%%", regressions, len(keys), 100**tol)
	}
	fmt.Fprintf(stdout, "all %d speedups within tolerance (%d new)\n", len(keys), extra)
	return nil
}

// median returns key's median speedup across the reports, or false
// when any of them lacks the key.
func median(reports []*report, key string) (float64, bool) {
	vs := make([]float64, 0, len(reports))
	for _, r := range reports {
		v, ok := r.Speedups[key]
		if !ok {
			return 0, false
		}
		vs = append(vs, v)
	}
	sort.Float64s(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2, true
}
