package disagg

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
)

// pausingStub is a stub decode replica that streams a token prefix,
// then blocks until released, then drops the connection — so a test
// can interleave router mutations with a provably in-flight stream.
func pausingStub(t *testing.T, tokens []TokenMsg, release <-chan struct{}) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hello := netsim.Hello{Role: "decode", NodeID: "pausing-stub", Method: "hack",
		ModelSeed: testModelSeed, SpecName: model.Toy().Name, Vocab: model.Toy().Vocab}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := netsim.AcceptHandshake(conn, hello, nil); err != nil {
					return
				}
				for {
					mt, _, err := netsim.ReadMessage(conn)
					if err != nil {
						return // the router's redials just close
					}
					if mt == netsim.MsgTransferEnd {
						break
					}
				}
				for _, tok := range tokens {
					if err := writeJSON(conn, netsim.MsgToken, tok); err != nil {
						return
					}
				}
				<-release
				// Die mid-stream: no MsgDone, just a severed connection.
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestRemoveReplicaMidStream is the regression for RemoveReplica racing
// an in-flight tryDecode: the replica is deregistered while it is still
// streaming, then dies; the router must fail over to the remaining
// replica and deliver every token exactly once — no drop, no duplicate,
// no double-finished stream.
func TestRemoveReplicaMidStream(t *testing.T) {
	req := Request{Prompt: []int{3, 1, 4, 1, 5}, MaxNewTokens: 10, Seed: 17}
	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := refTokens(t, ref, req)
	ref.Shutdown(context.Background())
	if len(want) < 4 {
		t.Fatalf("reference stream too short to split: %v", want)
	}

	release := make(chan struct{})
	prefix := []TokenMsg{{Index: 0, ID: want[0]}, {Index: 1, ID: want[1]}, {Index: 2, ID: want[2]}}
	stub, stopStub := pausingStub(t, prefix, release)
	defer stopStub()

	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The stub registers first: equal load scores place attempt one on it.
	r, err := NewRouter(RouterConfig{
		Prefills: []string{p.Addr()}, Decodes: []string{stub, d.Addr()},
		ModelSeed: testModelSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	st, err := r.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for tok := range st.Tokens() {
		if tok.Index != len(got) {
			t.Fatalf("token index %d at position %d (dropped or duplicated)", tok.Index, len(got))
		}
		got = append(got, tok.ID)
		if len(got) == len(prefix) {
			// The stub is mid-stream and paused: deregister it while its
			// tryDecode is provably in flight, then let it die.
			r.RemoveReplica(stub)
			close(release)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged: got %d want %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	rep := r.Report()
	if rep.Completed != 1 || rep.Failed != 0 {
		t.Fatalf("completed %d failed %d, want 1/0", rep.Completed, rep.Failed)
	}
	if rep.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", rep.Failovers)
	}
	if len(rep.Replicas) != 1 || rep.Replicas[0].Addr != d.Addr() {
		t.Fatalf("replica set after removal: %+v", rep.Replicas)
	}
}

// TestSubmitCloseRace hammers Submit against Close: the closed-check
// and the waitgroup registration must be atomic, or a Submit landing in
// the window panics the waitgroup Close is waiting on. Run under -race.
func TestSubmitCloseRace(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 8; round++ {
		r, err := NewRouter(RouterConfig{
			Prefills: []string{p.Addr()}, Decodes: []string{d.Addr()},
			ModelSeed: testModelSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 8; i++ {
					st, err := r.Submit(context.Background(),
						Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 2, Seed: int64(g*100 + i)})
					if err != nil {
						return // router closed: the only acceptable refusal
					}
					for range st.Tokens() {
					}
				}
			}(g)
		}
		close(start)
		r.Close() // races the submitters by design
		wg.Wait()
	}
}

// TestRouterSkipsDrainedPrefill drains one of two prefill nodes:
// its "draining" answer must pass each job to the other prefill node,
// whatever the round-robin start, and every stream must still match the
// single-process reference.
func TestRouterSkipsDrainedPrefill(t *testing.T) {
	var prefills []*Node
	for i := 0; i < 2; i++ {
		p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		prefills = append(prefills, p)
	}
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := NewRouter(RouterConfig{
		Prefills: []string{prefills[0].Addr(), prefills[1].Addr()}, Decodes: []string{d.Addr()},
		ModelSeed: testModelSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	drained, live := prefills[0], prefills[1]
	drained.Drain()
	for !drained.rt.Draining() {
		time.Sleep(time.Millisecond)
	}
	ref := newReference(t)
	for i := 0; i < 2; i++ { // both round-robin starts
		req := Request{Prompt: []int{4, 4, 2, 1, 9}, MaxNewTokens: 5, Seed: int64(i)}
		want := refTokens(t, ref, req)
		st, err := r.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectRouted(st)
		if err != nil {
			t.Fatalf("request %d with one prefill node drained: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("request %d: routed %v, reference %v", i, got, want)
		}
	}
	if n := drained.Stats().Prefills; n != 0 {
		t.Errorf("drained prefill node ran %d prefills", n)
	}
	if n := live.Stats().Prefills; n != 2 {
		t.Errorf("live prefill node ran %d prefills, want 2", n)
	}
}

// TestIdleDecodeTiesSpreadRequests pins the decode placement tie-break:
// with two idle decode replicas, sequential requests tie on load, and
// the one that has served fewer requests takes the next, so four
// requests split 2/2 rather than all landing on the first replica.
func TestIdleDecodeTiesSpreadRequests(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var decodes []string
	for i := 0; i < 2; i++ {
		d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		decodes = append(decodes, d.Addr())
	}
	r, err := NewRouter(RouterConfig{
		Prefills: []string{p.Addr()}, Decodes: decodes,
		ModelSeed: testModelSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 4; i++ {
		st, err := r.Submit(context.Background(), Request{Prompt: []int{4, 4, 2, 1, 9}, MaxNewTokens: 3, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := collectRouted(st); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, rep := range r.Report().Replicas {
		if rep.Requests != 2 {
			t.Errorf("replica %s served %d requests, want 2 of 4", rep.Addr, rep.Requests)
		}
	}
}

// routeAndCheck sends req through r and requires the single-process
// reference stream.
func routeAndCheck(t *testing.T, r *Router, req Request, want []int) {
	t.Helper()
	st, err := r.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectRouted(st)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("routed %v, reference %v", got, want)
	}
}

// TestHealedReplicaRejoins partitions replica 0 for a single request,
// heals the link, and sends eight sequential requests: replica 0 must
// serve some of them. The one failed dial counts against its breaker,
// which stays closed, so nothing keeps the healed replica out of
// placement.
func TestHealedReplicaRejoins(t *testing.T) {
	inj := chaos.NewInjector(7)
	c := newCluster(t, 2, func(rc *RouterConfig) {
		rc.Chaos = inj
		rc.RetryBackoff = time.Millisecond
	})
	ref := newReference(t)
	req := Request{Prompt: []int{2, 7, 1, 8, 2, 8}, MaxNewTokens: 4, Seed: 9}
	want := refTokens(t, ref, req)

	// Equal load and no requests served: the first placement goes to the
	// first-registered replica, across the partition.
	inj.SetPlan(c.decodes[0].Addr(), chaos.Plan{Partition: true})
	routeAndCheck(t, c.router, req, want)
	if inj.Stats().DialsRefused == 0 || c.router.Report().Retries == 0 {
		t.Fatalf("the request never met the partition: %+v, %+v", inj.Stats(), c.router.Report())
	}
	inj.Heal()

	before := c.decodes[0].Stats().Completed
	for i := 0; i < 8; i++ {
		routeAndCheck(t, c.router, req, want)
	}
	if served := c.decodes[0].Stats().Completed - before; served == 0 {
		t.Fatalf("the healed replica served 0 of 8 requests: %+v", c.router.Report().Replicas)
	}
}

// TestDrainedReplicaRejoinsAfterRestart drains one of two replicas. Its
// "draining" reply to the first request marks it, and the other replica
// serves every request after that. A node restarted at the drained
// one's address says in its Hello that it is not draining, and the
// rejoin loop puts it back in placement.
func TestDrainedReplicaRejoinsAfterRestart(t *testing.T) {
	c := newCluster(t, 2, func(rc *RouterConfig) {
		rc.RetryBackoff = time.Millisecond
		rc.BreakerCooldown = 20 * time.Millisecond
	})
	ref := newReference(t)
	req := Request{Prompt: []int{1, 4, 1, 4, 2}, MaxNewTokens: 4, Seed: 3}
	want := refTokens(t, ref, req)

	drained, live := c.decodes[0], c.decodes[1]
	addr := drained.Addr()
	drained.Drain()
	for !drained.rt.Draining() {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		routeAndCheck(t, c.router, req, want)
	}
	if n := drained.Stats().Completed; n != 0 {
		t.Fatalf("the draining replica completed %d requests", n)
	}
	if n := live.Stats().Completed; n != 4 {
		t.Fatalf("the live replica completed %d of 4 requests", n)
	}

	drained.Close()
	restarted, err := NewNode(NodeConfig{Addr: addr, Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		var rs ReplicaStatus
		for _, s := range c.router.Report().Replicas {
			if s.Addr == addr {
				rs = s
			}
		}
		if !rs.Draining && rs.Breaker.State == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the restarted replica never rejoined: %+v", rs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		routeAndCheck(t, c.router, req, want)
	}
	if restarted.Stats().Completed == 0 {
		t.Fatalf("the restarted replica served none of 4 requests: %+v", c.router.Report().Replicas)
	}
}

// TestUnreachableReplicaRegisters adds a decode replica whose address
// answers nothing yet: AddReplica registers it with the failed dial
// charged to its breaker, and once a node listens there it serves.
func TestUnreachableReplicaRegisters(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	r, err := NewRouter(RouterConfig{Prefills: []string{p.Addr()}, Decodes: []string{addr},
		ModelSeed: testModelSeed})
	if err != nil {
		t.Fatalf("unreachable replica refused: %v", err)
	}
	defer r.Close()
	if rs := r.Report().Replicas; len(rs) != 1 || rs[0].Breaker.ConsecutiveFails != 1 {
		t.Fatalf("the failed dial did not reach the breaker: %+v", rs)
	}

	d, err := NewNode(NodeConfig{Addr: addr, Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	req := Request{Prompt: []int{6, 2, 8}, MaxNewTokens: 3, Seed: 1}
	routeAndCheck(t, r, req, refTokens(t, newReference(t), req))
}

// TestAbandonedRequestStopsDecoding cancels a routed request with a
// 4096-token budget after its first token. The router hangs up on the
// decode replica, whose next token write fails; the job's end must then
// stop the runtime decoding for it too, so the replica counts the
// request canceled, far short of its budget.
func TestAbandonedRequestStopsDecoding(t *testing.T) {
	cfg := testServeConfig()
	cfg.MaxNewTokens = 4096
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := NewRouter(RouterConfig{Prefills: []string{p.Addr()}, Decodes: []string{d.Addr()},
		ModelSeed: testModelSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := r.Submit(ctx, Request{Prompt: []int{3, 1, 4, 1, 5, 9}, MaxNewTokens: 4096, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-st.Tokens(); !ok {
		t.Fatalf("stream ended before its first token: %v", st.Err())
	}
	cancel()
	for range st.Tokens() {
	}
	if err := st.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned stream ended with %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := d.Stats()
		if s.Canceled == 1 {
			if s.Completed != 0 || s.TokensStreamed >= 1024 {
				t.Fatalf("decode node completed %d, streamed %d tokens of an abandoned request",
					s.Completed, s.TokensStreamed)
			}
			return
		}
		if s.Completed != 0 || time.Now().After(deadline) {
			t.Fatalf("decode node kept decoding the abandoned request: canceled %d, completed %d, %d tokens",
				s.Canceled, s.Completed, s.TokensStreamed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
