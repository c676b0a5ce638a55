package bench

import (
	"io"
	"os"
	"os/exec"
	"runtime"
)

// The host this benchmark runs on places a virtual CPU that wakes from
// idle wherever there is room, often beside a busy hyperthread, and only
// a CPU that stays busy keeps a core to itself. The same code — above
// all the wide kernels — then runs at anything between full and half
// speed, and which one changes from second to second with the load of
// the neighbours: a served workload, which sleeps and wakes all the time,
// repeated within 30–50% from run to run, a loop that never sleeps within
// 3%. So for as long as a run measures, a process of the benchmark's own
// keeps every CPU awake: one thread per CPU, pinned to it, in the
// scheduler's idle class, which runs only when nothing else wants that
// CPU and is put aside the moment anything does. With it the same
// workloads repeat within 3–9%, at the speed of their best runs without
// it. The process is this same executable, re-executed with awakeEnv
// set: main and TestMain call ClientMain first.
const awakeEnv = "SERVEBENCH_AWAKE"

// keepAwake starts the process that keeps the CPUs awake and returns the
// function that ends it and waits for it. The process also ends by itself
// when this one dies: its standard input is a pipe only this process holds
// open.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), awakeEnv+"=1")
	cmd.Stderr = os.Stderr
	hold, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		hold.Close()
		cmd.Process.Kill()
		cmd.Wait()
	}, nil
}

// awakeMain is the process keepAwake starts. It never returns.
func awakeMain() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // one P is left to notice the end of input
	for cpu := 0; cpu < n; cpu++ {
		go func() {
			runtime.LockOSThread()
			// A thread outside the idle class would take CPU time from
			// the program measured: better no thread.
			if err := idleOn(cpu); err != nil {
				return
			}
			for x := uint64(1); ; {
				x = x*6364136223846793005 + 1442695040888963407
				awakeSink = x
			}
		}()
	}
	io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}

var awakeSink uint64
