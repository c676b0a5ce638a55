package model

import (
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/quant"
)

// prefixBackend builds the HACK backend the verify tests run on
// (stochastic rounding unless nearest is asked).
func prefixBackend(t *testing.T, seed int64, pi int, nearest bool) attention.Backend {
	t.Helper()
	cfg := attention.DefaultHACKConfig(seed)
	cfg.Pi = pi
	if nearest {
		cfg.Rounding = quant.NearestRounding
	}
	b, err := attention.NewHACK(cfg)
	if err != nil {
		t.Fatalf("NewHACK: %v", err)
	}
	return b
}

// sequentialTokens runs the plain greedy decode loop and returns the
// generated stream.
func sequentialTokens(t *testing.T, b attention.Backend, prompt []int, n int) []int {
	t.Helper()
	m, err := NewTransformer(Toy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.NewSession(b)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := sess.Prefill(prompt)
	if err != nil {
		t.Fatal(err)
	}
	out := []int{tok}
	for len(out) < n {
		if tok, err = sess.Decode(tok); err != nil {
			t.Fatal(err)
		}
		out = append(out, tok)
	}
	return out
}

// TestDecodeBatchMatchesSequential drives the speculative loop with a
// perfect oracle draft (the sequential stream itself) across window
// sizes and rounding modes, asserting the committed stream is
// bit-identical to plain decoding. Full-accept windows exercise the
// no-rollback fast path.
func TestDecodeBatchMatchesSequential(t *testing.T) {
	prompt := []int{5, 9, 2, 33, 17, 4, 21, 8}
	const n = 48
	for _, tc := range []struct {
		name    string
		pi      int
		nearest bool
		k       int
	}{
		{"pi32-counted-k2", 32, false, 2},
		{"pi32-counted-k4", 32, false, 4},
		{"pi64-counted-k8", 64, false, 8},
		{"pi64-nearest-k4", 64, true, 4},
		{"pi128-nearest-k8", 128, true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sequentialTokens(t, prefixBackend(t, 42, tc.pi, tc.nearest), prompt, n)

			m, err := NewTransformer(Toy(), 7)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := m.NewSession(prefixBackend(t, 42, tc.pi, tc.nearest))
			if err != nil {
				t.Fatal(err)
			}
			tok, err := sess.Prefill(prompt)
			if err != nil {
				t.Fatal(err)
			}
			got := []int{tok}
			if tok != want[0] {
				t.Fatalf("first token %d, want %d", tok, want[0])
			}
			for len(got) < n {
				kEff := sess.VerifyWindow(tc.k)
				if kEff < 2 {
					if tok, err = sess.Decode(tok); err != nil {
						t.Fatal(err)
					}
					got = append(got, tok)
					continue
				}
				// Oracle drafts: the known sequential continuation, so
				// every window fully accepts.
				window := []int{tok}
				for i := 1; i < kEff && len(got)+i <= n && len(got)+i <= len(want); i++ {
					window = append(window, want[len(got)+i-1])
				}
				outs, err := sess.DecodeBatch(window)
				if err != nil {
					t.Fatal(err)
				}
				m := 0
				for m+1 < len(window) && window[m+1] == outs[m] {
					m++
				}
				if m+1 != len(window) {
					t.Fatalf("oracle draft rejected at %d of %d", m+1, len(window))
				}
				got = append(got, outs[:m+1]...)
				tok = outs[m]
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("token %d: spec %d vs sequential %d\nspec %v\nseq  %v", i, got[i], want[i], got, want)
				}
			}
		})
	}
}

// TestTruncateLeavesNoResidue forces rejected windows — garbage drafts
// that never match — and asserts the rolled-back session continues
// bit-identically to plain decoding: no KV rows from the rejected
// suffix survive.
func TestTruncateLeavesNoResidue(t *testing.T) {
	prompt := []int{3, 1, 4, 1, 5, 9, 2, 6}
	const n = 40
	for _, tc := range []struct {
		name    string
		pi      int
		nearest bool
		k       int
	}{
		{"pi32-counted-k4", 32, false, 4},
		{"pi64-counted-k8", 64, false, 8},
		{"pi64-nearest-k4", 64, true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sequentialTokens(t, prefixBackend(t, 11, tc.pi, tc.nearest), prompt, n)

			m, err := NewTransformer(Toy(), 7)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := m.NewSession(prefixBackend(t, 11, tc.pi, tc.nearest))
			if err != nil {
				t.Fatal(err)
			}
			tok, err := sess.Prefill(prompt)
			if err != nil {
				t.Fatal(err)
			}
			got := []int{tok}
			for len(got) < n {
				kEff := sess.VerifyWindow(tc.k)
				if kEff < 2 {
					if tok, err = sess.Decode(tok); err != nil {
						t.Fatal(err)
					}
					got = append(got, tok)
					continue
				}
				before := sess.Len()
				// Adversarial drafts: tokens chosen to disagree with the
				// model (vocab-shifted), so at most the free token lands.
				window := []int{tok}
				for i := 1; i < kEff && len(got)+i-1 < len(want); i++ {
					window = append(window, (want[len(got)+i-1]+1)%Toy().Vocab)
				}
				outs, err := sess.DecodeBatch(window)
				if err != nil {
					t.Fatal(err)
				}
				m := 0
				for m+1 < len(window) && window[m+1] == outs[m] {
					m++
				}
				if err := sess.Truncate(before + m + 1); err != nil {
					t.Fatalf("truncate: %v", err)
				}
				if sess.Len() != before+m+1 {
					t.Fatalf("len %d after truncate, want %d", sess.Len(), before+m+1)
				}
				got = append(got, outs[:m+1]...)
				tok = outs[m]
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("token %d: spec %d vs sequential %d (rollback residue)\nspec %v\nseq  %v",
						i, got[i], want[i], got, want)
				}
			}
		})
	}
}

// TestVerifyWindowClamp pins the clamp: a window may never span a
// V-partition flush, and a full open partition forces plain decoding.
func TestVerifyWindowClamp(t *testing.T) {
	m, err := NewTransformer(Toy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.NewSession(prefixBackend(t, 1, 32, false))
	if err != nil {
		t.Fatal(err)
	}
	// Prompt of 30 tokens: tail holds 30 rows of the Π=32 partition, so
	// only one slot stays below the flush boundary.
	prompt := make([]int, 30)
	for i := range prompt {
		prompt[i] = i % Toy().Vocab
	}
	if _, err := sess.Prefill(prompt); err != nil {
		t.Fatal(err)
	}
	if got := sess.VerifyWindow(8); got != 1 {
		t.Fatalf("VerifyWindow(8) at tail 30/32 = %d, want 1", got)
	}
	if tok, err := sess.Decode(0); err != nil || tok < 0 {
		t.Fatalf("decode: %v", err)
	}
	// Tail now 31 = Π-1: no room at all.
	if got := sess.VerifyWindow(8); got != 0 {
		t.Fatalf("VerifyWindow(8) at tail 31/32 = %d, want 0", got)
	}
}

// TestDecodeBatchRejectsNonPrefixHeads pins the capability gate: heads
// that cannot hand their cache over — backends without the page format,
// and HACK heads under the quantized-tail ablation — offer no verify
// window, so speculation decodes them plainly.
func TestDecodeBatchRejectsNonPrefixHeads(t *testing.T) {
	m, err := NewTransformer(Toy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	fp16, err := m.NewSession(attention.FP16Backend{})
	if err != nil {
		t.Fatal(err)
	}
	if fp16.SupportsVerify() {
		t.Fatal("FP16 head claims batch-verify support")
	}
	cfg := attention.DefaultHACKConfig(3)
	cfg.RequantizationElimination = false
	b, err := attention.NewHACK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.NewSession(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Prefill([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := sess.VerifyWindow(4); got != 0 {
		t.Fatalf("VerifyWindow on a quantized-tail ablation head = %d, want 0", got)
	}
	if _, err := sess.DecodeBatch([]int{4, 5}); err == nil {
		t.Fatal("quantized-tail ablation head batch-verified a window")
	}
}
