package model

import (
	"fmt"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/tensor"
)

// This file is the model-level face of speculative decoding: a batched
// verify pass that scores a window of tokens in one forward call, and
// the rollback that removes a rejected suffix from every head. The
// per-row outputs of DecodeBatch are bit-identical to the corresponding
// sequential Decode calls (see internal/attention/spec.go for the
// head-level argument; every other layer op — rmsNorm, the dense
// matmuls, SiLU, the residual adds — computes each row independently of
// how many rows share the matrix).

// SupportsVerify reports whether the session's attention heads
// implement the batched-verify/rollback contract (the HACK heads).
// Callers use it to fall back to plain decoding rather than fail a
// request.
func (s *Session) SupportsVerify() bool {
	_, ok := s.heads[0][0].(attention.BatchVerifier)
	return ok
}

// Len returns the cached token count. Every head advances in lockstep,
// so layer 0 head 0 speaks for the session.
func (s *Session) Len() int { return s.heads[0][0].Len() }

// VerifyWindow clamps a proposed verify window to what every head can
// batch without breaking bit-identity (no V-partition flush inside the
// window): the largest b <= k all heads accept, possibly 0 when some
// head's open partition has no spare slot (or some head cannot batch at
// all) — the caller then runs a plain Decode for that step.
func (s *Session) VerifyWindow(k int) int {
	for _, row := range s.heads {
		for _, head := range row {
			bv, ok := head.(attention.BatchVerifier)
			if !ok {
				return 0
			}
			if k = bv.VerifyWindow(k); k == 0 {
				return 0
			}
		}
	}
	if k < 0 {
		return 0
	}
	return k
}

// DecodeBatch feeds a window of tokens — toks[0] the last committed
// token, toks[1:] draft proposals — through one causally-masked batched
// pass and returns one greedy token per input row: out[i] is the token
// the model generates after ingesting toks[0..i], bit-identical to what
// i+1 sequential Decode calls would have produced. The window appends
// len(toks) rows to every head's cache; the caller commits the accepted
// prefix and rolls the rest back with Truncate. Windows larger than 1
// must respect VerifyWindow.
func (s *Session) DecodeBatch(toks []int) ([]int, error) {
	if len(toks) == 0 {
		return nil, fmt.Errorf("model: empty verify window")
	}
	x := tensor.New(len(toks), s.m.spec.Hidden)
	for i, tok := range toks {
		if tok < 0 || tok >= s.m.spec.Vocab {
			return nil, fmt.Errorf("model: token %d out of vocab %d", tok, s.m.spec.Vocab)
		}
		copy(x.Row(i), s.m.Embed.Row(tok))
	}
	out, err := s.forward(x, passVerify)
	if err != nil {
		return nil, err
	}
	// Per-row logits: rmsNorm and the tied-embedding projection are
	// row-wise, so row i here equals logits() of a 1-row forward ending
	// at that row.
	lg := tensor.MatMulTransB(rmsNorm(out), s.m.Embed)
	next := make([]int, len(toks))
	for i := range next {
		next[i] = argmax(lg.Row(i))
	}
	return next, nil
}

// Truncate rolls every head's cache back to n tokens, discarding the
// most recently appended rows — the rejected suffix of a verify window.
// After it returns, the session's state is bit-identical to one that
// never saw the dropped tokens.
func (s *Session) Truncate(n int) error {
	for l, row := range s.heads {
		for h, head := range row {
			bv, ok := head.(attention.BatchVerifier)
			if !ok {
				return fmt.Errorf("model: layer %d head %d cannot truncate", l, h)
			}
			if err := bv.Truncate(n); err != nil {
				return fmt.Errorf("layer %d head %d: %w", l, h, err)
			}
		}
	}
	return nil
}
