package bench

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// The load client runs in a process of its own. Inside the server's
// process its generator and its stream readers would queue for the same
// two Ps the kernels saturate, and the measured lateness and TTFT would
// move with the program's CPU use rather than with its latency; the
// operating system wakes a mostly-sleeping process promptly. The client
// is this same executable, re-executed with clientEnv set: main and
// TestMain call ClientMain first.
const clientEnv = "SERVEBENCH_CLIENT"

const phaseTimeout = 150 * time.Second

// phaseSpec tells the client process which phase to drive. The client
// regenerates the requests itself: a trace is a pure function of
// (workload, seed, section, n, paced seconds).
type phaseSpec struct {
	URL      string
	Workload string
	Seed     int64
	Section  int
	N        int
	// PacedSeconds > 0 times the arrivals; Clients == 0 then selects
	// the open loop. Otherwise Clients callers run the closed loop for
	// Seconds, over the first First requests if First > 0.
	PacedSeconds float64
	Clients      int
	Seconds      float64
	First        int
}

// phaseResult is what the client process sends back.
type phaseResult struct {
	Samples []*Sample
	// Window is the closed loop's measured window.
	Window float64
}

// ClientMain runs the load client, or the process that keeps the CPUs
// awake (awake.go), and exits if this process was started as one;
// otherwise it returns at once.
func ClientMain() {
	if os.Getenv(awakeEnv) != "" {
		awakeMain()
	}
	if os.Getenv(clientEnv) == "" {
		return
	}
	// A client whose benchmark process was killed must not stay behind,
	// still loading a server that is gone: it ends when it is re-parented.
	go func(parent int) {
		for os.Getppid() == parent {
			time.Sleep(500 * time.Millisecond)
		}
		os.Exit(1)
	}(os.Getppid())
	var spec phaseSpec
	err := gob.NewDecoder(os.Stdin).Decode(&spec)
	if err == nil {
		var res *phaseResult
		if res, err = runPhase(context.Background(), spec); err == nil {
			err = gob.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench client:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// drive runs one phase in a client process and joins its samples with
// the trace they were generated from.
func drive(ctx context.Context, w Workload, spec phaseSpec) ([]Request, *phaseResult, error) {
	spec.Workload = w.Name
	reqs, err := BuildTrace(w, spec.Seed, spec.Section, spec.N, spec.PacedSeconds)
	if err != nil {
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var in, out bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(spec); err != nil {
		return nil, nil, err
	}
	// A phase that has not ended by then never will; the benchmark must
	// fail inside the driver's three minutes rather than hang.
	ctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), clientEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = &in, &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("bench: load client: %w", err)
	}
	var res phaseResult
	if err := gob.NewDecoder(&out).Decode(&res); err != nil {
		return nil, nil, fmt.Errorf("bench: load client result: %w", err)
	}
	for _, s := range res.Samples {
		if s.Index < 0 || s.Index >= len(reqs) {
			return nil, nil, fmt.Errorf("bench: load client returned sample %d of %d", s.Index, len(reqs))
		}
		s.req = &reqs[s.Index]
	}
	return reqs, &res, nil
}

func runPhase(ctx context.Context, spec phaseSpec) (*phaseResult, error) {
	w, err := WorkloadNamed(spec.Workload)
	if err != nil {
		return nil, err
	}
	reqs, err := BuildTrace(w, spec.Seed, spec.Section, spec.N, spec.PacedSeconds)
	if err != nil {
		return nil, err
	}
	c := newClient(spec.URL)
	defer c.close()
	if spec.Clients == 0 {
		return &phaseResult{Samples: runPaced(ctx, c, reqs)}, nil
	}
	if spec.First > 0 {
		reqs = reqs[:min(spec.First, len(reqs))]
	}
	samples, window := runSaturated(ctx, c, reqs, spec.Clients, spec.Seconds)
	return &phaseResult{Samples: samples, Window: window}, nil
}

// spinWindow is how long before a due time the generator stops
// sleeping and spins: a timer may fire a millisecond late on an idle
// runtime, which would be a fifth of a short prompt's TTFT.
const spinWindow = time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// runPaced is the open loop: one generator goroutine sends each request
// at its due time whatever the system's state, and every request is
// timed from that due time. It returns when every stream has ended.
func runPaced(ctx context.Context, c *client, reqs []Request) []*Sample {
	samples := make([]*Sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(reqs[i].DueS * float64(time.Second)))
		waitUntil(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i] = c.do(ctx, i, &reqs[i], start, due)
		}()
	}
	wg.Wait()
	return samples
}

// runSaturated is the closed loop: `clients` callers each send their
// next request when the previous stream ends, for `seconds`. Requests
// begun inside the window run to their end; the throughput metrics
// count only what arrived inside it. It returns the samples and the
// window actually measured (shorter than asked only when the trace ran
// out).
func runSaturated(ctx context.Context, c *client, reqs []Request, clients int, seconds float64) ([]*Sample, float64) {
	samples := make([]*Sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || !now.Before(deadline) {
					return
				}
				samples[i] = c.do(ctx, i, &reqs[i], start, now)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	for n > 0 && samples[n-1] == nil {
		n-- // indices claimed after the deadline
	}
	window := seconds
	if n == len(reqs) {
		// The trace ran out: measure up to the last stream's end.
		window = 0
		for _, s := range samples[:n] {
			window = max(window, s.EndS)
		}
		window = min(window, seconds)
	}
	return samples[:n], window
}
