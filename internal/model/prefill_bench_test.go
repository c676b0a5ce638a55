package model

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/attention"
)

// BenchmarkPrefillServed times one whole-model prefill at the served
// shape: the Toy model under HACK at Π 64, the configuration the serving
// benchmark runs, at a short, a long and the longest served prompt
// length. Run it at several -cpu values to see the prefill fan-out, e.g.
//
//	go test -run '^$' -bench PrefillServed -benchmem -cpu 1,2 ./internal/model
func BenchmarkPrefillServed(b *testing.B) {
	m, err := NewTransformer(Toy(), 1)
	if err != nil {
		b.Fatal(err)
	}
	hk, err := attention.NewHACK(attention.DefaultHACKConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, L := range []int{128, 394, 881} {
		prompt := randPrompt(rand.New(rand.NewSource(int64(L))), L, m.Spec().Vocab)
		b.Run(fmt.Sprintf("L%d", L), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := m.NewSession(hk)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Prefill(prompt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
