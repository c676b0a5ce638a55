package disagg

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

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
						return // health probes just close
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
		ModelSeed: testModelSeed, HealthInterval: time.Hour,
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
			ModelSeed: testModelSeed, HealthInterval: time.Hour,
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
		ModelSeed: testModelSeed, HealthInterval: time.Hour,
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
		ModelSeed: testModelSeed, HealthInterval: time.Hour,
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
