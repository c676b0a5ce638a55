package model

import (
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/attention"
)

// TestPrefixPagesStableAcrossBlockClasses is the regression test for
// prefix pages that depended on the length of the prompt they were cut
// from. A donor and a warm prompt share a 512-token prefix and carry
// suffixes of 32..256 tokens, chosen so the two prompts fall in
// different block classes ⌊L/Π⌋. The warm session restores the donor's
// pages for the shared prefix and resumes over its own suffix; its
// logits and greedy tokens must be bit-identical to a cold prefill of
// the warm prompt, for every seed.
func TestPrefixPagesStableAcrossBlockClasses(t *testing.T) {
	spec := Toy()
	const prefixLen, minSuffix, maxSuffix, seeds, decodeSteps = 512, 32, 256, 10, 4
	m, err := NewTransformer(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	tokens := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(spec.Vocab)
		}
		return out
	}
	suffixLen := func() int { return minSuffix + rng.Intn(maxSuffix-minSuffix+1) }

	classes := map[int]bool{}
	logitMismatches, tokenMismatches := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		cfg := attention.DefaultHACKConfig(seed)
		backend, err := attention.NewHACK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pi := cfg.Pi
		prefix := tokens(prefixLen)
		donorLen := prefixLen + suffixLen()
		warmLen := prefixLen + suffixLen()
		for warmLen/pi == donorLen/pi {
			warmLen = prefixLen + suffixLen()
		}
		classes[donorLen/pi], classes[warmLen/pi] = true, true
		donorPrompt := append(append([]int(nil), prefix...), tokens(donorLen-prefixLen)...)
		warmPrompt := append(append([]int(nil), prefix...), tokens(warmLen-prefixLen)...)

		donor, err := m.NewSession(backend)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := donor.Prefill(donorPrompt); err != nil {
			t.Fatal(err)
		}
		warm := restoreFromPages(t, m, backend, donor, prefixLen)
		gotLogits, err := warm.ResumePrefillLogits(warmPrompt, prefixLen)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := m.NewSession(backend)
		if err != nil {
			t.Fatal(err)
		}
		wantLogits, err := cold.PrefillLogits(warmPrompt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantLogits {
			if gotLogits[i] != wantLogits[i] {
				logitMismatches++
				t.Errorf("seed %d (donor L=%d, warm L=%d): logit %d warm %v, cold %v",
					seed, donorLen, warmLen, i, gotLogits[i], wantLogits[i])
				break
			}
		}

		warmTok, coldTok := argmax(gotLogits), argmax(wantLogits)
		for step := 0; ; step++ {
			if warmTok != coldTok {
				tokenMismatches++
				t.Errorf("seed %d (donor L=%d, warm L=%d): token %d warm %d, cold %d",
					seed, donorLen, warmLen, step, warmTok, coldTok)
				break
			}
			if step == decodeSteps {
				break
			}
			if warmTok, err = warm.Decode(warmTok); err != nil {
				t.Fatal(err)
			}
			if coldTok, err = cold.Decode(coldTok); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(classes) < 3 {
		t.Fatalf("prompts covered %d block classes, want at least 3", len(classes))
	}
	if logitMismatches+tokenMismatches > 0 {
		t.Errorf("%d of %d seeds diverged in logits, %d in greedy tokens", logitMismatches, seeds, tokenMismatches)
	}
}

// restoreFromPages builds a session over the first cached tokens of
// donor, exported from every head as prefix pages and restored on
// backend.
func restoreFromPages(t *testing.T, m *Transformer, backend attention.PrefixBackend, donor *Session, cached int) *Session {
	t.Helper()
	spec := m.Spec()
	heads := make([][]attention.Head, spec.Layers)
	for l := range heads {
		heads[l] = make([]attention.Head, spec.Heads)
		for h := range heads[l] {
			k, v, err := donor.Head(l, h).(attention.PrefixPageExporter).ExportPrefixPages(0, cached)
			if err != nil {
				t.Fatal(err)
			}
			if heads[l][h], err = backend.RestorePrefixHead(spec.HeadDim, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := m.RestoreSession(backend, heads)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
