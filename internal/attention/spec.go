package attention

import (
	"fmt"

	"github.com/hackkv/hack/internal/tensor"
)

// This file implements the head-level primitives of speculative
// decoding: verifying a window of draft tokens in one batched attention
// call (DecodeBatch), and rolling a rejected suffix back out of the
// cache (Truncate).
//
// The invariant everything below serves: a batched verify over k rows
// is token-for-token bit-identical to k sequential Decode calls. That
// holds because, inside a window clamped by VerifyWindow,
//
//   - no V-partition flush occurs, so every row sees the same quantized
//     VFull span (nFull) a sequential step would have seen;
//   - row i of the k×cache score matrix is the same dot products in the
//     same order as sequential step i, and the causal mask zeroes row
//     i's not-yet-appended columns through softmax (exp(-Inf) = 0), so
//     trailing masked terms cannot perturb any unmasked value;
//   - every Q and P draw is keyed by the row's absolute position
//     (quant.StochasticRounding), which is the same in the window as in
//     the sequential step.
//
// Rolling back is then dropping the window's rejected rows: they are
// still FP16 tail rows (no flush happened), the quantized cache is
// untouched, and the quantizer holds no stream state to rewind.

// BatchVerifier is implemented by heads that can verify a window of
// draft tokens in one batched attention call and roll a rejected suffix
// back. The HACK head implements it; heads whose cache cannot move (the
// HACK/RQE ablation, KV eviction) offer no window.
type BatchVerifier interface {
	// VerifyWindow returns the largest window b <= k whose b appended
	// rows stay inside the open V partition (no flush, the bit-identity
	// precondition above), possibly 0 when the partition has no spare
	// slot — callers fall back to a plain Decode for that step.
	VerifyWindow(k int) int
	// DecodeBatch appends the b rows of k/v to the cache and attends
	// the b query rows in one causally-masked call. Row i's output is
	// bit-identical to the i-th of b sequential Decode calls. b > 1
	// must respect VerifyWindow.
	DecodeBatch(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error)
	// Truncate rolls the cache back to n tokens, dropping the most
	// recently appended rows. The dropped rows must still be FP16 tail
	// rows — guaranteed when they were appended through a clamped
	// verify window.
	Truncate(n int) error
}

// VerifyWindow implements BatchVerifier.
func (h *hackHead) VerifyWindow(k int) int {
	if k < 0 || h.cfg.transferable() != nil {
		return 0
	}
	if room := h.cfg.Pi - 1 - h.c.TailLen(); k > room {
		k = room
	}
	return k
}

// DecodeBatch implements BatchVerifier: the window's rows continue the
// sequence like a prefill over them.
func (h *hackHead) DecodeBatch(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	if err := h.cfg.transferable(); err != nil {
		return nil, Stats{}, err
	}
	b := q.Rows
	if b < 1 || k.Rows != b || v.Rows != b {
		return nil, Stats{}, fmt.Errorf("attention: verify window with q=%d k=%d v=%d rows", q.Rows, k.Rows, v.Rows)
	}
	if b > 1 && h.c.TailLen()+b > h.cfg.Pi-1 {
		return nil, Stats{}, fmt.Errorf("attention: verify window %d overflows the open partition (%d/%d tail rows); clamp with VerifyWindow",
			b, h.c.TailLen(), h.cfg.Pi)
	}
	out, st, err := h.Prefill(q, k, v)
	st.KVBytesRead = int64(h.c.Usage().Total())
	return out, st, err
}

// Truncate implements BatchVerifier.
func (h *hackHead) Truncate(n int) error {
	drop := h.c.Len() - n
	if drop < 0 {
		return fmt.Errorf("attention: truncate to %d tokens with only %d cached", n, h.c.Len())
	}
	return h.c.TruncateTail(drop)
}
