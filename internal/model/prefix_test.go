package model

import (
	"testing"

	"github.com/hackkv/hack/internal/attention"
)

// TestResumePrefillMatchesColdPrefill is the shared-prefix warm path in
// miniature at the model level: prefill a donor session, export every
// head's Π-aligned page span, restore the pages into a fresh session,
// and resume the prefill over the prompt suffix. The resumed logits and
// every subsequent greedy decode step must be bit-identical to a cold
// session prefilling the whole prompt itself.
func TestResumePrefillMatchesColdPrefill(t *testing.T) {
	spec := Toy()
	const modelSeed, quantSeed = 11, 7
	const cached, maxNew = 16, 12

	cfg := attention.DefaultHACKConfig(quantSeed)
	cfg.Pi = 8
	backend, err := attention.NewHACK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTransformer(spec, modelSeed)
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 21)
	for i := range prompt {
		prompt[i] = (13*i + 5) % spec.Vocab
	}

	// Cold reference.
	cold, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	wantLogits, err := cold.PrefillLogits(prompt)
	if err != nil {
		t.Fatal(err)
	}

	// Donor session supplies the cached pages.
	donor, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Prefill(prompt); err != nil {
		t.Fatal(err)
	}
	warm := restoreFromPages(t, m, backend, donor, cached)
	gotLogits, err := warm.ResumePrefillLogits(prompt, cached)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLogits) != len(wantLogits) {
		t.Fatalf("logit count %d, want %d", len(gotLogits), len(wantLogits))
	}
	for i := range gotLogits {
		if gotLogits[i] != wantLogits[i] {
			t.Fatalf("logit %d diverged: %v vs %v", i, gotLogits[i], wantLogits[i])
		}
	}

	// Greedy decode must stay locked to the cold session.
	coldTok, warmTok := argmax(wantLogits), argmax(gotLogits)
	for step := 0; step < maxNew; step++ {
		if warmTok != coldTok {
			t.Fatalf("step %d: warm token %d, cold %d", step, warmTok, coldTok)
		}
		var err error
		if coldTok, err = cold.Decode(coldTok); err != nil {
			t.Fatal(err)
		}
		if warmTok, err = warm.Decode(warmTok); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumePrefillValidation pins the resume entry point's bounds.
func TestResumePrefillValidation(t *testing.T) {
	cfg := attention.DefaultHACKConfig(1)
	cfg.Pi = 8
	backend, err := attention.NewHACK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewTransformer(Toy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession(backend)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3, 4}
	for _, cached := range []int{0, -1, 4, 5} {
		if _, err := s.ResumePrefillLogits(prompt, cached); err == nil {
			t.Fatalf("cached=%d accepted", cached)
		}
	}
}
