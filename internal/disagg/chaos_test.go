package disagg

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/serve"
	"github.com/hackkv/hack/internal/workload"
)

// newChaosCluster mirrors newCluster but wires a fault injector into the
// router and returns an explicit close instead of t.Cleanup, so tests
// can tear the deployment down before their goroutine-leak check. The
// router is tuned for fast chaos recovery: short frame deadlines, tight
// backoff, budget-only retries.
func newChaosCluster(t *testing.T, nDecode int, inj *chaos.Injector, tweak func(*RouterConfig)) (*cluster, func()) {
	t.Helper()
	p, err := NewNode(NodeConfig{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{prefill: p}
	closers := []func(){func() { p.Close() }}
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	rc := RouterConfig{
		Prefills:        []string{p.Addr()},
		ModelSeed:       testModelSeed,
		HTTPAddr:        "127.0.0.1:0",
		FrameTimeout:    500 * time.Millisecond,
		RetryBackoff:    5 * time.Millisecond,
		RetryMax:        -1, // the scripts outlast a fixed count: budget-only
		RetryBudget:     10 * time.Second,
		BreakerCooldown: 50 * time.Millisecond,
		Chaos:           inj,
	}
	for i := 0; i < nDecode; i++ {
		d, err := NewNode(NodeConfig{
			Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Serve: testServeConfig(),
		})
		if err != nil {
			closeAll()
			t.Fatal(err)
		}
		c.decodes = append(c.decodes, d)
		closers = append(closers, func() { d.Close() })
		rc.Decodes = append(rc.Decodes, d.Addr())
	}
	if tweak != nil {
		tweak(&rc)
	}
	r, err := NewRouter(rc)
	if err != nil {
		closeAll()
		t.Fatal(err)
	}
	c.router = r
	closers = append(closers, func() { r.Close() })
	return c, closeAll
}

// applyChaosAction binds a script's action vocabulary to a live cluster:
// kills land on the decode Node, everything else lands on the
// router's links through the injector.
func applyChaosAction(c *cluster, inj *chaos.Injector) func(chaos.Action) {
	linkAddrs := func(target int) []string {
		if target < 0 {
			addrs := []string{c.prefill.Addr()}
			for _, d := range c.decodes {
				addrs = append(addrs, d.Addr())
			}
			return addrs
		}
		if target < len(c.decodes) {
			return []string{c.decodes[target].Addr()}
		}
		return nil
	}
	return func(a chaos.Action) {
		switch a.Kind {
		case chaos.ActKillDecode:
			if a.Target >= 0 && a.Target < len(c.decodes) {
				c.decodes[a.Target].Kill()
			}
		case chaos.ActDegradeLink, chaos.ActCorruptFrame:
			if a.Target < 0 {
				inj.SetDefaultPlan(a.Plan)
				return
			}
			for _, addr := range linkAddrs(a.Target) {
				inj.SetPlan(addr, a.Plan)
			}
		case chaos.ActPartition:
			for _, addr := range linkAddrs(a.Target) {
				inj.SetPlan(addr, chaos.Plan{Partition: true})
			}
		case chaos.ActHeal:
			inj.Heal()
		}
	}
}

// replayRound pushes the request set through the router (concurrently or
// sequentially) and requires every stream to match its precomputed
// reference byte-for-byte — the zero-dropped, zero-duplicated invariant.
func replayRound(t *testing.T, r *Router, reqs []Request, want [][]int, sequential bool) {
	t.Helper()
	got := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
	run := func(i int) {
		st, err := r.Submit(context.Background(), reqs[i])
		if err != nil {
			errs[i] = err
			return
		}
		got[i], errs[i] = collectRouted(st)
	}
	if sequential {
		for i := range reqs {
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func(i int) { defer wg.Done(); run(i) }(i)
		}
		wg.Wait()
	}
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d failed under chaos: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d tokens under chaos, reference %d\ngot  %v\nwant %v",
				i, len(got[i]), len(want[i]), got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d diverged under chaos: got %d want %d\ngot  %v\nwant %v",
					i, j, got[i][j], want[i][j], got[i], want[i])
			}
		}
	}
}

func waitReplicaBreakerClosed(t *testing.T, r *Router, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rs := range r.Report().Replicas {
			if rs.Addr == addr && rs.Breaker.State == "closed" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s breaker never closed after heal: %+v", addr, r.Report().Replicas)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosScriptsZeroTokenLoss is the scripted chaos harness: every
// registered fault script replays against a router + 1 prefill +
// 2 decode loopback deployment while a workload streams through it.
// Under every script, every stream must stay byte-identical to the
// fault-free single-process reference (no dropped or duplicated
// tokens), no request may fail, recovery must be bounded (a post-heal
// round completes, and for partitions the tripped breaker re-closes),
// and the deployment must not leak goroutines.
func TestChaosScriptsZeroTokenLoss(t *testing.T) {
	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown(context.Background())
	vocab := model.Toy().Vocab

	for _, name := range chaos.Scripts() {
		script, err := chaos.ScriptNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			// corrupt-frame needs prompts long enough that one transfer
			// crosses the script's corruption cadence, submitted
			// sequentially so the first attempt deterministically lands on
			// the corrupted replica-0 link. The other scripts replay a
			// concurrent workload trace.
			var reqs []Request
			sequential := false
			if name == "corrupt-frame" {
				sequential = true
				for i := 0; i < 3; i++ {
					prompt := make([]int, 16)
					for j := range prompt {
						prompt[j] = (i*5 + j*3 + 1) % vocab
					}
					reqs = append(reqs, Request{Prompt: prompt, MaxNewTokens: 6, Seed: int64(40 + i)})
				}
			} else {
				reqs = scenarioRequests(t, 3, workload.IMDb(), 6)
			}
			want := make([][]int, len(reqs))
			for i, req := range reqs {
				want[i] = refTokens(t, ref, req)
			}

			before := runtime.NumGoroutine()
			func() {
				inj := chaos.NewInjector(7)
				c, closeAll := newChaosCluster(t, 2, inj, nil)
				defer closeAll()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				playDone := make(chan struct{})
				go func() {
					defer close(playDone)
					_ = script.Play(ctx, applyChaosAction(c, inj))
				}()

				// Keep rounds flowing for the script's whole timeline so
				// every event lands on live traffic.
				rounds := 0
				for {
					replayRound(t, c.router, reqs, want, sequential)
					rounds++
					select {
					case <-playDone:
					default:
						continue
					}
					if rounds >= 2 {
						break
					}
				}
				// Bounded recovery: the fabric has healed; one more round
				// must pass cleanly.
				replayRound(t, c.router, reqs, want, sequential)

				rep := c.router.Report()
				if rep.Failed != 0 {
					t.Fatalf("%d requests failed under %s", rep.Failed, name)
				}
				if total := int64((rounds + 1) * len(reqs)); rep.Completed != total {
					t.Fatalf("completed %d requests, want %d", rep.Completed, total)
				}
				if rep.Chaos == nil {
					t.Fatal("chaos stats missing from the router report")
				}

				st := inj.Stats()
				switch name {
				case "kill-decode":
					if rep.Retries == 0 {
						t.Fatal("replica kill triggered no retries")
					}
				case "degrade-kv-link":
					if st.OpsDelayed == 0 {
						t.Fatal("latency plan delayed no operations")
					}
				case "partition-heal":
					if st.DialsRefused == 0 {
						t.Fatal("partition refused no dials")
					}
					// Recovery is observable, not just survivable: the
					// router's redial of the replica out of placement
					// re-closes the partitioned replica's breaker.
					waitReplicaBreakerClosed(t, c.router, c.decodes[0].Addr())
					// Breaker and chaos state surface on /metrics.
					resp, err := http.Get("http://" + c.router.HTTPAddr() + "/metrics?format=text")
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					for _, series := range []string{"breaker_state{replica=", "breaker_trips_total", "chaos_dials_refused_total"} {
						if !strings.Contains(string(body), series) {
							t.Fatalf("router /metrics missing %q:\n%s", series, body)
						}
					}
				case "corrupt-frame":
					if st.BytesCorrupted == 0 {
						t.Fatal("corruption plan flipped no bytes")
					}
					if rep.Retries == 0 {
						t.Fatal("corrupted frames triggered no retries")
					}
				}
			}()

			// Everything is closed: no goroutine may outlive the deployment.
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= before+2 {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("goroutines leaked under %s: %d before, %d after\n%s",
						name, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
