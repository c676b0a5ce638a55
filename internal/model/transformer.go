package model

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/kvcache"
	"github.com/hackkv/hack/internal/tensor"
)

// Transformer is a numeric decoder-only transformer with deterministic
// synthetic weights. It is the substrate for the accuracy experiments:
// the same Transformer is run once per attention backend and the
// generated token sequences are compared.
type Transformer struct {
	spec Spec
	// Embed maps tokens to hidden states (vocab × hidden); the output
	// projection is tied to Embedᵀ, which keeps logits well-scaled.
	Embed *tensor.Matrix
	// layers holds the per-layer weights.
	layers []layerWeights
}

type layerWeights struct {
	wq     *tensor.Matrix // hidden × heads·d_h
	wk, wv *tensor.Matrix // hidden × kvHeads·d_h (grouped-query attention)
	wo     *tensor.Matrix // heads·d_h × hidden
	w1     *tensor.Matrix // hidden × mlp
	w2     *tensor.Matrix // mlp × hidden
}

// NewTransformer builds a model with N(0, 1/√fanIn) weights from the
// given seed. The same (spec, seed) pair always yields bit-identical
// weights, so backends see the same model.
func NewTransformer(spec Spec, seed int64) (*Transformer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Heads*spec.HeadDim != spec.Hidden {
		return nil, fmt.Errorf("model: heads·d_h %d != hidden %d (numeric model requires equality)",
			spec.Heads*spec.HeadDim, spec.Hidden)
	}
	if spec.Vocab <= 1 || spec.MLPDim <= 0 {
		return nil, fmt.Errorf("model: vocab %d / mlp %d", spec.Vocab, spec.MLPDim)
	}
	rng := rand.New(rand.NewSource(seed))
	h := spec.Hidden
	kvWidth := spec.KVHeads * spec.HeadDim
	m := &Transformer{
		spec:  spec,
		Embed: tensor.RandNormal(rng, spec.Vocab, h, 1/math.Sqrt(float64(h))),
	}
	for l := 0; l < spec.Layers; l++ {
		m.layers = append(m.layers, layerWeights{
			wq: tensor.RandNormal(rng, h, h, 1/math.Sqrt(float64(h))),
			wk: tensor.RandNormal(rng, h, kvWidth, 1/math.Sqrt(float64(h))),
			wv: tensor.RandNormal(rng, h, kvWidth, 1/math.Sqrt(float64(h))),
			wo: tensor.RandNormal(rng, h, h, 1/math.Sqrt(float64(h))),
			w1: tensor.RandNormal(rng, h, spec.MLPDim, 1/math.Sqrt(float64(h))),
			w2: tensor.RandNormal(rng, spec.MLPDim, h, 1/math.Sqrt(float64(spec.MLPDim))),
		})
	}
	return m, nil
}

// Spec returns the architecture.
func (m *Transformer) Spec() Spec { return m.spec }

// rmsNorm normalizes each row to unit RMS.
func rmsNorm(x *tensor.Matrix) *tensor.Matrix {
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		var ss float64
		for _, v := range row {
			ss += float64(float64(v) * float64(v))
		}
		inv := float32(1 / math.Sqrt(ss/float64(len(row))+1e-6))
		for j := range row {
			row[j] *= inv
		}
	}
	return out
}

// Session is per-sequence inference state: one attention.Head per
// (layer, head) built from the chosen backend.
type Session struct {
	m       *Transformer
	backend attention.Backend
	heads   [][]attention.Head
	// Stats accumulates attention work across the whole session.
	Stats attention.Stats
}

// NewSession prepares a fresh sequence against the given backend.
func (m *Transformer) NewSession(b attention.Backend) (*Session, error) {
	s := &Session{m: m, backend: b}
	for l := 0; l < m.spec.Layers; l++ {
		var row []attention.Head
		for h := 0; h < m.spec.Heads; h++ {
			head, err := b.NewHead(m.spec.HeadDim)
			if err != nil {
				return nil, err
			}
			row = append(row, head)
		}
		s.heads = append(s.heads, row)
	}
	return s, nil
}

// RestoreSession rebuilds a sequence's inference state from per-(layer,
// head) attention heads reconstructed elsewhere — the decode instance's
// entry point after a disaggregated KV transfer. heads must be indexed
// [layer][head] and match the architecture exactly.
func (m *Transformer) RestoreSession(b attention.Backend, heads [][]attention.Head) (*Session, error) {
	if len(heads) != m.spec.Layers {
		return nil, fmt.Errorf("model: restore with %d layers, want %d", len(heads), m.spec.Layers)
	}
	for l, row := range heads {
		if len(row) != m.spec.Heads {
			return nil, fmt.Errorf("model: restore layer %d with %d heads, want %d", l, len(row), m.spec.Heads)
		}
		for h, head := range row {
			if head == nil {
				return nil, fmt.Errorf("model: restore layer %d head %d is nil", l, h)
			}
		}
	}
	return &Session{m: m, backend: b, heads: heads}, nil
}

// Head returns the attention state of one (layer, head) — the prefill
// instance reads cache contents through this for the KV transfer.
func (s *Session) Head(layer, head int) attention.Head { return s.heads[layer][head] }

// Len returns the cached token count. Every head advances in lockstep,
// so layer 0 head 0 speaks for the session.
func (s *Session) Len() int { return s.heads[0][0].Len() }

// pass selects which per-head attention entry point a forward run uses.
type pass int

const (
	passPrefill pass = iota
	passDecode
)

// forward runs the transformer over x (L×hidden) through the selected
// pass and returns the final hidden states.
func (s *Session) forward(x *tensor.Matrix, p pass) (*tensor.Matrix, error) {
	spec := s.m.spec
	for l, w := range s.m.layers {
		xn := rmsNorm(x)
		q := tensor.MatMul(xn, w.wq)
		if g := s.m.spec.ScoreGain; g > 0 && g != 1 {
			q.Scale(float32(g))
		}
		k := tensor.MatMul(xn, w.wk)
		v := tensor.MatMul(xn, w.wv)
		concat := tensor.New(x.Rows, spec.Hidden)
		group := spec.Heads / spec.KVHeads
		for h := 0; h < spec.Heads; h++ {
			lo, hi := h*spec.HeadDim, (h+1)*spec.HeadDim
			// Grouped-query attention: query head h reads the KV
			// projection of group h/group (each query head keeps its
			// own backend cache; sharing is a memory optimization the
			// cluster-level model accounts for separately).
			klo := (h / group) * spec.HeadDim
			qh := q.SliceCols(lo, hi)
			kh := k.SliceCols(klo, klo+spec.HeadDim)
			vh := v.SliceCols(klo, klo+spec.HeadDim)
			var (
				oh  *tensor.Matrix
				st  attention.Stats
				err error
			)
			if p == passPrefill {
				oh, st, err = s.heads[l][h].Prefill(qh, kh, vh)
			} else {
				oh, st, err = s.heads[l][h].Decode(qh, kh, vh)
			}
			if err != nil {
				return nil, fmt.Errorf("layer %d head %d: %w", l, h, err)
			}
			s.Stats.Add(st)
			for i := 0; i < oh.Rows; i++ {
				copy(concat.Row(i)[lo:hi], oh.Row(i))
			}
		}
		x = x.Clone().Add(tensor.MatMul(concat, w.wo))
		mlpIn := rmsNorm(x)
		x = x.Add(tensor.MatMul(tensor.SiLU(tensor.MatMul(mlpIn, w.w1)), w.w2))
	}
	return x, nil
}

// logits projects the last row of hidden states onto the tied embedding.
func (s *Session) logits(x *tensor.Matrix) []float32 {
	last := tensor.FromSlice(1, x.Cols, x.Row(x.Rows-1))
	return tensor.MatMulTransB(rmsNorm(last), s.m.Embed).Row(0)
}

// argmax returns the index of the largest logit, breaking ties low.
func argmax(xs []float32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range xs {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// PrefillLogits processes the prompt and returns the next-token logits.
func (s *Session) PrefillLogits(prompt []int) ([]float32, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("model: empty prompt")
	}
	return s.prefillLogits(prompt)
}

// prefillLogits runs the prefill pass over tokens, the rows that follow
// whatever the session's heads already hold.
func (s *Session) prefillLogits(prompt []int) ([]float32, error) {
	x := tensor.New(len(prompt), s.m.spec.Hidden)
	for i, tok := range prompt {
		if tok < 0 || tok >= s.m.spec.Vocab {
			return nil, fmt.Errorf("model: token %d out of vocab %d", tok, s.m.spec.Vocab)
		}
		copy(x.Row(i), s.m.Embed.Row(tok))
	}
	out, err := s.forward(x, passPrefill)
	if err != nil {
		return nil, err
	}
	return s.logits(out), nil
}

// ResumePrefillLogits continues a prefill whose first cached prompt
// tokens already sit in every head's restored KV cache (the shared-
// prefix warm path): only prompt[cached:] is embedded and forwarded,
// and the returned next-token logits are bit-identical to a cold
// PrefillLogits over the whole prompt for the same backend seed.
// Requires 0 < cached < len(prompt) and a session holding exactly the
// cached tokens (one built by RestoreSession over restored heads).
func (s *Session) ResumePrefillLogits(prompt []int, cached int) ([]float32, error) {
	if cached <= 0 || cached >= len(prompt) || s.Len() != cached {
		return nil, fmt.Errorf("model: resume with %d cached of %d prompt tokens over a session holding %d",
			cached, len(prompt), s.Len())
	}
	return s.prefillLogits(prompt[cached:])
}

// ResumePrefill continues a prefill over restored prefix pages (see
// ResumePrefillLogits) and returns the first generated token.
func (s *Session) ResumePrefill(prompt []int, cached int) (int, error) {
	lg, err := s.ResumePrefillLogits(prompt, cached)
	if err != nil {
		return 0, err
	}
	return argmax(lg), nil
}

// DecodeLogits feeds one token and returns the next-token logits.
func (s *Session) DecodeLogits(tok int) ([]float32, error) {
	if tok < 0 || tok >= s.m.spec.Vocab {
		return nil, fmt.Errorf("model: token %d out of vocab %d", tok, s.m.spec.Vocab)
	}
	x := tensor.New(1, s.m.spec.Hidden)
	copy(x.Row(0), s.m.Embed.Row(tok))
	out, err := s.forward(x, passDecode)
	if err != nil {
		return nil, err
	}
	return s.logits(out), nil
}

// Prefill processes the prompt and returns the first generated token.
func (s *Session) Prefill(prompt []int) (int, error) {
	lg, err := s.PrefillLogits(prompt)
	if err != nil {
		return 0, err
	}
	return argmax(lg), nil
}

// Decode feeds one token and returns the next.
func (s *Session) Decode(tok int) (int, error) {
	lg, err := s.DecodeLogits(tok)
	if err != nil {
		return 0, err
	}
	return argmax(lg), nil
}

// Generate runs prefill on the prompt and greedy decoding for up to
// maxNew tokens, stopping early on eos (pass a negative eos to disable).
// It returns the generated tokens (excluding the prompt).
func (s *Session) Generate(prompt []int, maxNew, eos int) ([]int, error) {
	tok, err := s.Prefill(prompt)
	if err != nil {
		return nil, err
	}
	out := []int{tok}
	for len(out) < maxNew {
		if tok == eos {
			break
		}
		tok, err = s.Decode(tok)
		if err != nil {
			return out, err
		}
		out = append(out, tok)
	}
	return out, nil
}

// HeadUsage returns the KV cache usage of one (layer, head).
func (s *Session) HeadUsage(layer, head int) kvcache.Usage {
	return s.heads[layer][head].CacheUsage()
}

// CacheUsageTotal sums the KV cache footprint across all layers/heads.
func (s *Session) CacheUsageTotal() int {
	total := 0
	for _, row := range s.heads {
		for _, h := range row {
			total += h.CacheUsage().Total()
		}
	}
	return total
}

// WireSizeTotal sums the prefill→decode KV transfer size across all
// layers/heads.
func (s *Session) WireSizeTotal() int {
	total := 0
	for _, row := range s.heads {
		for _, h := range row {
			total += h.WireSize()
		}
	}
	return total
}
