package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
)

// identityCase is one (prompt, seed) of the identity matrix: the prompt
// to serve and a donor prompt sharing its first sharedLen tokens but
// falling in another block class ⌊L/Π⌋.
type identityCase struct {
	seed          int64
	prompt, donor []int
	sharedLen     int
}

// TestIdentityMatrix states the serving runtime's defining invariant
// once: every execution path streams byte-identical tokens per
// (prompt, seed). Over ten seeds it serves each prompt cold on the
// local role (the reference) and then through
//
//   - the prefix tier, warm from pages a donor prompt of another block
//     class inserted;
//   - the disaggregated handoff: ExportWire → KVFrame bytes →
//     RestoreHead → SubmitPrefilled;
//   - the same handoff from a session that was itself restored from
//     the donor's prefix pages and resumed over the suffix;
//   - the prefill role's entry: Server.Prefill on a server whose prefix
//     tier holds the donor's pages, then ExportWire → RestoreHead →
//     SubmitPrefilled on another server;
//   - continuous batching: all ten cases submitted at once to one server
//     with three prefill workers, a decode batch of 8 and four decode
//     goroutines, so a request's tokens cannot depend on its batch.
func TestIdentityMatrix(t *testing.T) {
	const seeds, sharedLen, maxNew = 10, 128, 12
	base := Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: maxNew}
	local := newTestServer(t, base)
	pi := attention.DefaultHACKConfig(0).Pi
	vocab := local.Spec().Vocab

	rng := rand.New(rand.NewSource(1))
	tokens := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(vocab)
		}
		return out
	}
	suffix := func() int { return 1 + rng.Intn(2*pi) }
	cases := make([]identityCase, seeds)
	for i := range cases {
		shared := tokens(sharedLen)
		n, d := sharedLen+suffix(), sharedLen+suffix()
		for n/pi == d/pi {
			d = sharedLen + suffix()
		}
		cases[i] = identityCase{
			seed:      int64(i),
			prompt:    append(append([]int(nil), shared...), tokens(n-sharedLen)...),
			donor:     append(append([]int(nil), shared...), tokens(d-sharedLen)...),
			sharedLen: sharedLen,
		}
	}

	prefixCfg := base
	prefixCfg.PrefixCacheBytes = 1 << 24
	prefix := newTestServer(t, prefixCfg)
	entry := newTestServer(t, prefixCfg)
	prefillOnly := func(t *testing.T, prompt []int, seed int64) (*model.Session, int) {
		t.Helper()
		sess, tok, err := entry.Prefill(context.Background(), Request{Prompt: prompt, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sess, tok
	}
	decode := newTestServer(t, base)
	together := submitTogether(t, newTestServer(t,
		Config{PrefillWorkers: 3, DecodeParallelism: 4, MaxBatch: 8, MaxNewTokens: maxNew}), cases)

	paths := []struct {
		name  string
		serve func(t *testing.T, c identityCase) []int
	}{
		{"prefix-warm", func(t *testing.T, c identityCase) []int {
			submitOne(t, prefix, c.donor, c.seed)
			return submitOne(t, prefix, c.prompt, c.seed)
		}},
		{"wire", func(t *testing.T, c identityCase) []int {
			sess, tok := prefilled(t, decode, c.prompt, c.seed, nil)
			return generateFrom(t, decode, shipOverWire(t, decode, sess, c.seed), tok, c.seed)
		}},
		{"prefix-restored-wire", func(t *testing.T, c identityCase) []int {
			sess, tok := prefilled(t, decode, c.prompt, c.seed, &c)
			return generateFrom(t, decode, shipOverWire(t, decode, sess, c.seed), tok, c.seed)
		}},
		{"prefill-entry", func(t *testing.T, c identityCase) []int {
			prefillOnly(t, c.donor, c.seed)
			sess, tok := prefillOnly(t, c.prompt, c.seed)
			return generateFrom(t, decode, shipOverWire(t, decode, sess, c.seed), tok, c.seed)
		}},
		{"batched", func(t *testing.T, c identityCase) []int {
			return together[c.seed]
		}},
	}
	for _, c := range cases {
		want := submitOne(t, local, c.prompt, c.seed)
		for _, p := range paths {
			if got := p.serve(t, c); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, seed %d (L=%d, donor L=%d): %v, cold local %v",
					p.name, c.seed, len(c.prompt), len(c.donor), got, want)
			}
		}
	}
	for name, s := range map[string]*Server{"prefix-warm": prefix, "prefill-entry": entry} {
		if pc := s.Metrics().PrefixCache; pc.Hits != seeds || pc.TokensReused != seeds*sharedLen {
			t.Errorf("%s prefix tier: %d hits reusing %d tokens, want %d hits of %d tokens",
				name, pc.Hits, pc.TokensReused, seeds, sharedLen)
		}
	}
}

// submitTogether submits every case to s before reading any stream, so
// the cases share prefill workers and decode batches, and returns each
// case's tokens indexed by its seed.
func submitTogether(t *testing.T, s *Server, cases []identityCase) map[int64][]int {
	t.Helper()
	streams := make([]*Stream, len(cases))
	for i, c := range cases {
		st, err := s.Submit(context.Background(), Request{Prompt: c.prompt, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	out := make(map[int64][]int, len(cases))
	for i, st := range streams {
		out[cases[i].seed] = collect(t, st)
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// generateFrom decodes a session prefilled elsewhere on s, after its
// first token.
func generateFrom(t *testing.T, s *Server, sess *model.Session, firstTok int, seed int64) []int {
	t.Helper()
	st, err := s.SubmitPrefilled(context.Background(), Request{Seed: seed}, sess, firstTok)
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, st)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// prefilled prefills prompt on a session of s's model and backend —
// cold, or (warm != nil) restored from the pages of warm.donor's shared
// prefix and resumed over the rest of the prompt.
func prefilled(t *testing.T, s *Server, prompt []int, seed int64, warm *identityCase) (*model.Session, int) {
	t.Helper()
	backend, err := s.BackendFor(seed)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Model()
	sess, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	if warm == nil {
		tok, err := sess.Prefill(prompt)
		if err != nil {
			t.Fatal(err)
		}
		return sess, tok
	}
	if _, err := sess.Prefill(warm.donor); err != nil {
		t.Fatal(err)
	}
	spec := s.Spec()
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		heads[l] = make([]attention.Head, spec.Heads)
		for h := range heads[l] {
			k, v, err := sess.Head(l, h).(attention.PrefixPageExporter).ExportPrefixPages(0, warm.sharedLen)
			if err != nil {
				t.Fatal(err)
			}
			if heads[l][h], err = backend.(attention.PrefixBackend).RestorePrefixHead(spec.HeadDim, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	resumed, err := m.RestoreSession(backend, heads)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := resumed.ResumePrefill(prompt, warm.sharedLen)
	if err != nil {
		t.Fatal(err)
	}
	return resumed, tok
}

// shipOverWire moves every head of sess through the KV wire format —
// ExportWire, a serialized KVFrame, RestoreHead — into a fresh session.
func shipOverWire(t *testing.T, s *Server, sess *model.Session, seed int64) *model.Session {
	t.Helper()
	backend, err := s.BackendFor(seed)
	if err != nil {
		t.Fatal(err)
	}
	spec := s.Spec()
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		heads[l] = make([]attention.Head, spec.Heads)
		for h := range heads[l] {
			k, v, tail, draws, err := sess.Head(l, h).(attention.WireExporter).ExportWire()
			if err != nil {
				t.Fatal(err)
			}
			fr, err := netsim.FrameFromTensors(1, l, h, 0, k, v, tail.Data)
			if err != nil {
				t.Fatal(err)
			}
			fr.RNGDraws = draws
			var buf bytes.Buffer
			if _, err := fr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			var recv netsim.KVFrame
			if _, err := recv.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			rk, rv, rtail, err := recv.Tensors()
			if err != nil {
				t.Fatal(err)
			}
			if heads[l][h], err = backend.(*attention.HACKBackend).RestoreHead(spec.HeadDim, rk, rv, rtail, recv.RNGDraws); err != nil {
				t.Fatal(err)
			}
		}
	}
	restored, err := s.Model().RestoreSession(backend, heads)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}
