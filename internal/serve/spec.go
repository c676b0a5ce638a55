package serve

import (
	"fmt"
	"sort"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/quant"
)

// This file is the serving loop's speculative decoding: a cheap draft
// session (a coarser HACK quantization class on the same weights)
// proposes up to SpecK-1 tokens per step, and the request's
// full-precision session verifies the window in one batched attention
// call (model.Session.DecodeBatch). The accepted prefix is committed,
// the rejected suffix is rolled out of both sessions' KV caches, and
// the emitted stream stays byte-identical to the
// non-speculative server at the same (prompt, seed) — speculation only
// changes how many kernel calls produce the tokens, never which tokens.
//
// The draft mirrors the target: both caches always hold exactly the
// committed token rows, so the draft's proposals are a deterministic
// function of (prompt, seed) and acceptance rates reproduce run-to-run.

// draftSeedSalt decorrelates the draft backend's quantizer stream keys
// from the target's without costing determinism (both derive from the
// request seed).
const draftSeedSalt = 0x5bd1e995b4793a1d

// draftClasses enumerates the named draft quantization classes. All run
// SE+RQE (the draft must support rollback); they differ in partition
// width and rounding. Wider partitions and nearest
// rounding make the kernels cheaper — Π=128 nearest is the fastest
// class (widest SE reuse, no per-element rounding draws) and the default.
var draftClasses = map[string]func(cfg *attention.HACKConfig){
	"pi128-nearest": func(c *attention.HACKConfig) { c.Pi = 128; c.Rounding = quant.NearestRounding },
	"pi64-nearest":  func(c *attention.HACKConfig) { c.Pi = 64; c.Rounding = quant.NearestRounding },
	"pi32-nearest":  func(c *attention.HACKConfig) { c.Pi = 32; c.Rounding = quant.NearestRounding },
	"pi128":         func(c *attention.HACKConfig) { c.Pi = 128 },
	"pi64":          func(c *attention.HACKConfig) { c.Pi = 64 },
}

// DefaultDraftClass is the draft class an empty Config.SpecDraft selects.
const DefaultDraftClass = "pi128-nearest"

// DraftClasses lists the recognized draft class names, sorted.
func DraftClasses() []string {
	out := make([]string, 0, len(draftClasses))
	for name := range draftClasses {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// draftConfig resolves a draft class name (empty = DefaultDraftClass)
// into its backend configuration for one request seed.
func draftConfig(name string, seed int64) (attention.HACKConfig, error) {
	if name == "" {
		name = DefaultDraftClass
	}
	mut, ok := draftClasses[name]
	if !ok {
		return attention.HACKConfig{}, fmt.Errorf("serve: unknown draft class %q (have %v)", name, DraftClasses())
	}
	cfg := attention.DefaultHACKConfig(int64(uint64(seed) ^ draftSeedSalt))
	cfg.NameOverride = "draft-" + name
	mut(&cfg)
	return cfg, nil
}

// newDraftSession builds and prefills the request's draft session. The
// draft always cold-prefills the whole prompt (its quantization class
// differs from the target's, so prefix pages don't transfer); that cost
// is the speculation overhead the verify speedup has to beat.
func (s *Server) newDraftSession(req Request) (*model.Session, error) {
	cfg, err := draftConfig(s.cfg.SpecDraft, req.Seed)
	if err != nil {
		return nil, err
	}
	backend, err := attention.NewHACK(cfg)
	if err != nil {
		return nil, err
	}
	sess, err := s.m.NewSession(backend)
	if err != nil {
		return nil, err
	}
	// The draft's own first-token prediction is discarded: the target
	// already produced the true first token. Prefill only seeds the
	// draft's KV cache with the prompt rows.
	if _, err := sess.Prefill(req.Prompt); err != nil {
		return nil, err
	}
	return sess, nil
}

// specStep advances one request by up to SpecK tokens: the draft
// proposes, the target batch-verifies, the accepted prefix is emitted.
// Called instead of stepOne for requests that carry a draft session.
func (s *Server) specStep(a *active) {
	if err := a.ctx.Err(); err != nil {
		a.done, a.err = true, err
		return
	}
	if s.forced() {
		a.done, a.err = true, ErrDrained
		return
	}
	// Clamp the window: the request's remaining budget, then the
	// largest flush-free batch the target accepts, then the largest
	// flush-free run of appends the draft can roll back (the draft
	// ingests kEff-1 rows while proposing).
	kEff := s.cfg.SpecK
	if rem := a.maxNew - a.n; kEff > rem {
		kEff = rem
	}
	kEff = a.sess.VerifyWindow(kEff)
	if kEff >= 2 {
		if room := a.draft.VerifyWindow(kEff-1) + 1; kEff > room {
			kEff = room
		}
	}
	if kEff < 2 {
		// No speculative room this step (open partition nearly full, or
		// budget down to one token): plain decode, mirroring the
		// committed row into the draft so the caches stay lockstep.
		tok, err := a.sess.Decode(a.last)
		if err != nil {
			a.done, a.err = true, err
			return
		}
		if _, err := a.draft.Decode(a.last); err != nil {
			a.done, a.err = true, err
			return
		}
		a.emit(tok, &s.rec)
		if a.n >= a.maxNew || (a.req.EOS > 0 && tok == a.req.EOS) {
			a.done = true
		}
		return
	}

	// Draft pass: propose kEff-1 tokens. Each Decode ingests the
	// previous token, so after the loop the draft holds the window's
	// first kEff-1 rows.
	before := a.sess.Len()
	window := make([]int, 1, kEff)
	window[0] = a.last
	cur := a.last
	for len(window) < kEff {
		next, err := a.draft.Decode(cur)
		if err != nil {
			a.done, a.err = true, err
			return
		}
		window = append(window, next)
		cur = next
	}

	// Verify pass: one batched call over the full-precision kernels.
	// outs[i] is the model's true token after ingesting window[0..i].
	outs, err := a.sess.DecodeBatch(window)
	if err != nil {
		a.done, a.err = true, err
		return
	}
	match := 0
	for match+1 < len(window) && window[match+1] == outs[match] {
		match++
	}
	emitN := match + 1 // accepted drafts plus the verify's own token

	// Commit the accepted prefix; roll the rejected suffix out of both
	// sessions. A full accept needs no target rollback, and the draft
	// catches up by ingesting the final draft token (its prediction is
	// discarded — the verify already produced that position's token).
	if err := a.sess.Truncate(before + emitN); err != nil {
		a.done, a.err = true, err
		return
	}
	if emitN == kEff {
		if _, err := a.draft.Decode(window[kEff-1]); err != nil {
			a.done, a.err = true, err
			return
		}
	} else if err := a.draft.Truncate(before + emitN); err != nil {
		a.done, a.err = true, err
		return
	}

	s.rec.specWindows.Add(1)
	s.rec.specProposed.Add(int64(kEff - 1))
	s.rec.specAccepted.Add(int64(match))
	a.specProposed += int64(kEff - 1)
	a.specAccepted += int64(match)

	for _, tok := range outs[:emitN] {
		a.emit(tok, &s.rec)
		s.rec.specEmitted.Add(1)
		if a.n >= a.maxNew || (a.req.EOS > 0 && tok == a.req.EOS) {
			a.done = true
			return
		}
	}
}
