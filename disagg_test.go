package hack_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/hackkv/hack"
)

// disaggEngine builds an engine for one disaggregated role in
// deterministic single-worker mode.
func disaggEngine(t *testing.T, role hack.Role, opts ...hack.Option) *hack.Engine {
	t.Helper()
	eng, err := hack.New(append([]hack.Option{
		hack.WithMethod("HACK"),
		hack.WithRole(role),
		hack.WithServeConfig(hack.ServeConfig{
			PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 8,
		}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDisaggFacadeByteIdentical boots a full disaggregated deployment
// through the public facade — router, prefill node, two decode
// replicas — and requires the routed stream to match Engine.Listen's
// single-process output byte-for-byte.
func TestDisaggFacadeByteIdentical(t *testing.T) {
	ctx := context.Background()
	req := hack.RoutedRequest{Prompt: []int{2, 7, 1, 8, 2, 8}, MaxNewTokens: 6, Seed: 17}

	// Single-process reference.
	local, err := listenEngine(t, "HACK").Listen(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Shutdown(ctx)
	want, err := local.Generate(ctx, hack.GenRequest{
		Prompt: req.Prompt, MaxNewTokens: req.MaxNewTokens, Seed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	prefill, err := disaggEngine(t, hack.RolePrefill).ListenDisagg(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer prefill.Close()
	var decodes []*hack.DisaggServer
	for i := 0; i < 2; i++ {
		d, err := disaggEngine(t, hack.RoleDecode).ListenDisagg(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		decodes = append(decodes, d)
	}
	router, err := disaggEngine(t, hack.RoleRouter,
		hack.WithPeers([]string{prefill.WireAddr()},
			[]string{decodes[0].WireAddr(), decodes[1].WireAddr()}),
	).ListenDisagg(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	st, err := router.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for tok := range st.Tokens() {
		got = append(got, tok.ID)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("routed %v, local %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged: routed %v, local %v", i, got, want)
		}
	}

	rep := router.Report()
	if rep.Completed != 1 || len(rep.Replicas) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	var sb strings.Builder
	if err := router.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hackserved_router_completed_total 1") {
		t.Fatalf("router prometheus output:\n%s", sb.String())
	}
}

// TestDisaggFacadeRoleErrors pins the role-surface contract: wrong-role
// calls fail loudly rather than silently no-op, and unknown roles are
// rejected at option time.
func TestDisaggFacadeRoleErrors(t *testing.T) {
	if _, err := hack.New(hack.WithRole("bogus")); err == nil {
		t.Fatal("bogus role accepted")
	}
	if _, err := hack.ParseRole("bogus"); err == nil {
		t.Fatal("ParseRole accepted bogus")
	}
	if r, err := hack.ParseRole(""); err != nil || r != hack.RoleLocal {
		t.Fatalf("ParseRole(\"\") = %v, %v", r, err)
	}

	// A local engine has no disaggregated role.
	if _, err := listenEngine(t, "HACK").ListenDisagg(context.Background()); err == nil {
		t.Fatal("local engine accepted ListenDisagg")
	}

	p, err := disaggEngine(t, hack.RolePrefill).ListenDisagg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Submit(context.Background(), hack.RoutedRequest{Prompt: []int{1}}); err == nil {
		t.Fatal("prefill node accepted Submit")
	}
	if err := p.AddReplica("127.0.0.1:1"); err == nil {
		t.Fatal("prefill node accepted AddReplica")
	}

	// A router with no prefill peers is a configuration error.
	if _, err := disaggEngine(t, hack.RoleRouter).ListenDisagg(context.Background()); err == nil {
		t.Fatal("router with no prefill peers accepted")
	}

	// ErrNoReplicas surfaces through the facade sentinels.
	r, err := disaggEngine(t, hack.RoleRouter,
		hack.WithPeers([]string{p.WireAddr()}, nil),
	).ListenDisagg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := r.Submit(context.Background(), hack.RoutedRequest{Prompt: []int{1, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for range st.Tokens() {
	}
	if err := st.Err(); !errors.Is(err, hack.ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}

	// A mismatched deployment is refused at the handshake, and the
	// refusal is a typed sentinel through the facade.
	mis, err := disaggEngine(t, hack.RoleRouter,
		hack.WithPeers([]string{p.WireAddr()}, nil),
		hack.WithServeConfig(hack.ServeConfig{ModelSeed: 99}),
	).ListenDisagg(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer mis.Close()
	if err := mis.AddReplica(p.WireAddr()); !errors.Is(err, hack.ErrHandshakeRefused) {
		t.Fatalf("AddReplica to mismatched peer: %v, want ErrHandshakeRefused", err)
	}

	// Prefill and decode nodes drain; routers do not.
	if err := p.Drain(); err != nil {
		t.Fatalf("prefill node refused Drain: %v", err)
	}
	if err := r.Drain(); err == nil {
		t.Fatal("router accepted Drain")
	}
}
