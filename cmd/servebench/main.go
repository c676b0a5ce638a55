// Command servebench is the end-to-end serving benchmark: it deploys
// the serving stack in-process from the public facade, drives it over
// loopback HTTP with generated traffic, checks every stream against its
// reference, and reports what a user of the system would see — plus, in
// a separate traced run, where a request's time goes layer by layer.
//
//	go run ./cmd/servebench                      # all four workloads, gated and traced
//	go run ./cmd/servebench -workload local_chat # one workload's gated run
//	go run ./cmd/servebench -agree               # the full set twice, compared against the bounds
//
// With -workload it runs that workload once in this process and prints,
// as its last line, the one-line JSON result the benchmark driver reads
// (the metrics BENCHMARK.json names: end to end with -trace 0, per layer
// with -trace 1). Without it, it re-executes itself once per workload
// and kind of run, so set-up time and peak memory are per workload, and
// writes one JSON report. bench/README.md explains the workloads, the
// metrics and how to read the output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/hackkv/hack/bench"
)

// outDir is where a run leaves what it writes: the traced run's spans
// and the full set's report.
var outDir = filepath.Join("bench", "out")

func main() {
	start := time.Now()
	bench.ClientMain()

	name := flag.String("workload", "", "run this one workload (default: all four, gated and traced)")
	seed := flag.Int64("seed", 1, "seeds the trace and every request's quantizer")
	seconds := flag.Float64("seconds", bench.RunSeconds, "seconds one run measures")
	trace := flag.Int("trace", 0, "1 selects the traced run (per-layer metrics, spans), 0 the gated run")
	out := flag.String("out", "", "write the JSON report here (default bench/out/report.json for the full set)")
	agree := flag.Bool("agree", false, "run the full set twice and compare every end-to-end metric against its bound")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *out, start)
	case *agree:
		err = runAgree(*seed, *seconds)
	default:
		if *out == "" {
			*out = filepath.Join(outDir, "report.json")
		}
		var rep *bench.Report
		if rep, err = runAll(*seed, *seconds); err == nil {
			rep.Print(os.Stdout)
			if err = rep.Write(*out); err == nil {
				err = rep.Verdict()
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process.
func runOne(name string, seed int64, seconds float64, traced bool, out string, start time.Time) error {
	w, err := bench.WorkloadNamed(name)
	if err != nil {
		return err
	}
	// An interrupted run still stops and waits for the processes it
	// started, on its way out through the deferred calls.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	var r *bench.Result
	if traced {
		r, err = bench.RunTraced(ctx, w, seed, seconds, outDir)
	} else {
		r, err = bench.RunGated(ctx, w, seed, seconds, start)
	}
	if err != nil {
		return err
	}
	r.Print(os.Stdout)
	if out != "" {
		if err := bench.WriteJSON(out, r); err != nil {
			return err
		}
	}
	line, err := r.DriverLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return r.Verdict()
}

// runAll re-executes this program once per workload and kind of run and
// gathers the results.
func runAll(seed int64, seconds float64) (*bench.Report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := bench.NewReport(seed, seconds)
	for _, w := range bench.Workloads {
		for trace := 0; trace <= 1; trace++ {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, trace))
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", path)
			cmd.Stderr = os.Stderr
			fmt.Fprintf(os.Stderr, "servebench: %s (trace %d)\n", w.Name, trace)
			runErr := cmd.Run()
			var r bench.Result
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &r)
			}
			if err != nil {
				// No result at all: the run itself broke.
				return nil, fmt.Errorf("%s (trace %d): %v (%v)", w.Name, trace, runErr, err)
			}
			rep.Results = append(rep.Results, &r)
		}
	}
	return rep, nil
}

// runAgree runs the full set twice, keeps both reports, and compares
// the two.
func runAgree(seed int64, seconds float64) error {
	var sets [2]*bench.Report
	for i := range sets {
		rep, err := runAll(seed, seconds)
		if err != nil {
			return err
		}
		if err := rep.Write(filepath.Join(outDir, fmt.Sprintf("agree-%d.json", i+1))); err != nil {
			return err
		}
		sets[i] = rep
	}
	return bench.Agreement(os.Stdout, sets[0], sets[1])
}
